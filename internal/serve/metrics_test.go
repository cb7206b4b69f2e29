package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestMetricsSnapshotCounters(t *testing.T) {
	m := newMetrics()
	m.requests.Add(5)
	m.scored.Add(3)
	m.phish.Add(1)
	m.cacheHits.Add(2)
	m.cacheMiss.Add(2)
	snap := m.Snapshot()
	if snap.Requests != 5 || snap.PagesScored != 3 || snap.PhishVerdicts != 1 {
		t.Errorf("counters: %+v", snap)
	}
	if snap.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", snap.CacheHitRate)
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	s := newServer(t, nil)
	var score *endpointClass
	for _, c := range s.classes {
		if c.name == "score" {
			score = c
		}
	}
	if score == nil || score.window == nil {
		t.Fatal("server has no score class with a latency histogram")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.metrics.requests.Add(1)
				score.window.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := s.Metrics()
	if snap.Requests != 8000 {
		t.Errorf("requests = %d, want 8000", snap.Requests)
	}
	if all, _ := s.latency(); all.Count() != 8000 {
		t.Errorf("latency count = %d, want 8000", all.Count())
	}
}

// heldBody is a request body whose first Read reports the handler has
// started reading and then waits for release.
type heldBody struct {
	entered, release chan struct{}
	once             sync.Once
	r                io.Reader
}

func (b *heldBody) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return b.r.Read(p)
}

// TestInFlightCountsNoScrape: the in-flight gauge counts requests being
// served, not the ops request that reads it — an idle server reads 0 in
// both /metrics formats, and 1 while one score request is held in its
// handler.
func TestInFlightCountsNoScrape(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	gauge := regexp.MustCompile(`(?m)^knowphish_requests_in_flight (\S+)$`)
	check := func(want int64) {
		t.Helper()
		var m MetricsSnapshot
		call(t, s, http.MethodGet, "/metrics", nil, &m)
		prom := rawCall(t, s, http.MethodGet, "/metrics?format=prometheus", nil, nil).Body.String()
		got := gauge.FindStringSubmatch(prom)
		if m.InFlight != want || got == nil || got[1] != strconv.FormatInt(want, 10) {
			t.Errorf("in_flight = %d, knowphish_requests_in_flight = %v; want %d in both", m.InFlight, got, want)
		}
	}
	check(0)
	page, err := json.Marshal(PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	body := &heldBody{entered: make(chan struct{}), release: make(chan struct{}), r: bytes.NewReader(page)}
	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/score", body))
		done <- rec.Code
	}()
	select {
	case <-body.entered:
	case code := <-done:
		t.Fatalf("score request finished with status %d without reading its body", code)
	}
	check(1)
	close(body.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held score request: status %d", code)
	}
	check(0)
}

// TestLatencyLedger pins who observes what: every successful scoring
// request is one observation of the request-latency histogram and of
// its endpoint class's window, every successful batch one more of the
// batch histogram, and error responses and ops probes none.
func TestLatencyLedger(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	const k, j = 3, 2
	pages := c.PhishTest.Examples
	for i := 0; i < k; i++ {
		if code := call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: pages[i].Snapshot}, nil); code != http.StatusOK {
			t.Fatalf("/v1/score %d: status %d", i, code)
		}
	}
	for i := 0; i < j; i++ {
		req := V2BatchRequest{Pages: []PageRequest{{Snapshot: pages[k+2*i].Snapshot}, {Snapshot: pages[k+2*i+1].Snapshot}}}
		if code := call(t, s, http.MethodPost, "/v2/score/batch", req, nil); code != http.StatusOK {
			t.Fatalf("/v2/score/batch %d: status %d", i, code)
		}
	}
	if code := call(t, s, http.MethodPost, "/v1/score", PageRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty page: status %d, want 400", code)
	}
	if code := call(t, s, http.MethodGet, "/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}

	rec := rawCall(t, s, http.MethodGet, "/metrics?format=prometheus", nil, nil)
	samples, _ := parseProm(t, rec.Body.String())
	sample := func(name string) float64 {
		t.Helper()
		for _, smp := range samples {
			if smp.name == name && smp.labels == "" {
				return smp.value
			}
		}
		t.Fatalf("scrape has no unlabeled %s sample", name)
		return 0
	}
	if got := sample("knowphish_request_duration_seconds_count"); got != k+j {
		t.Errorf("knowphish_request_duration_seconds_count = %v, want %d", got, k+j)
	}
	if got := sample("knowphish_batch_duration_seconds_count"); got != j {
		t.Errorf("knowphish_batch_duration_seconds_count = %v, want %d", got, j)
	}

	var m MetricsSnapshot
	if code := call(t, s, http.MethodGet, "/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if w := m.Endpoints["score"].Windows; len(w) == 0 || w[0].Count != k {
		t.Errorf("endpoints.score.windows = %+v, want the 1m window counting %d", w, k)
	}
	if m.LatencyP50US <= 0 {
		t.Errorf("latency_p50_us = %d, want > 0", m.LatencyP50US)
	}
}
