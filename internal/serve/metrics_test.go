package serve

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyHistPercentiles(t *testing.T) {
	var h latencyHist
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zero")
	}
	// 90 fast requests, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	p50 := h.Percentile(50)
	p99 := h.Percentile(99)
	if p50 > 1000 {
		t.Errorf("p50 = %dµs, want <= ~256µs bucket", p50)
	}
	if p99 < 10_000 {
		t.Errorf("p99 = %dµs, want in the tens of milliseconds", p99)
	}
	if p50 > p99 {
		t.Errorf("p50 %d > p99 %d", p50, p99)
	}
	if m := h.Mean(); m <= 0 {
		t.Errorf("mean = %d", m)
	}
}

func TestLatencyHistExtremes(t *testing.T) {
	var h latencyHist
	h.Observe(-time.Second) // clamped, must not panic or corrupt
	h.Observe(0)
	h.Observe(10 * time.Minute) // beyond last bucket boundary
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Percentile(100) == 0 {
		t.Error("p100 of nonempty histogram is zero")
	}
}

func TestMetricsSnapshotCounters(t *testing.T) {
	m := newMetrics()
	m.requests.Add(5)
	m.scored.Add(3)
	m.phish.Add(1)
	m.cacheHits.Add(2)
	m.cacheMiss.Add(2)
	m.latency.Observe(time.Millisecond)
	snap := m.Snapshot()
	if snap.Requests != 5 || snap.PagesScored != 3 || snap.PhishVerdicts != 1 {
		t.Errorf("counters: %+v", snap)
	}
	if snap.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", snap.CacheHitRate)
	}
	if snap.LatencyP50US <= 0 {
		t.Errorf("p50 = %d", snap.LatencyP50US)
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	m := newMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.requests.Add(1)
				m.latency.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Requests != 8000 {
		t.Errorf("requests = %d, want 8000", snap.Requests)
	}
	if m.latency.Count() != 8000 {
		t.Errorf("latency count = %d, want 8000", m.latency.Count())
	}
}
