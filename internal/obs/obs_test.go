package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"knowphish/internal/racecheck"
)

func TestHistPercentileEmpty(t *testing.T) {
	h := NewWindowedHist(nil).SinceBoot()
	if h.Percentile(50) != 0 || h.Percentile(99) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zero")
	}
}

func TestHistPercentileOneSample(t *testing.T) {
	w := NewWindowedHist(nil)
	w.Observe(300 * time.Microsecond)
	h := w.SinceBoot()
	// A single sample defines every percentile; the answer must be the
	// observed value, not the containing bucket's 512 µs upper bound.
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Percentile(p); got != 300 {
			t.Errorf("p%.0f = %d µs, want 300 (clamped to the observation)", p, got)
		}
	}
}

func TestHistPercentileLastBucketClamped(t *testing.T) {
	w := NewWindowedHist(nil)
	// 10 minutes lands in the open-ended last bucket, whose theoretical
	// bound is 2^26 µs ≈ 67 s. The percentile must report the real
	// maximum, not the bucket bound.
	w.Observe(10 * time.Minute)
	want := (10 * time.Minute).Microseconds()
	if got := w.SinceBoot().Percentile(99); got != want {
		t.Errorf("p99 = %d µs, want %d (observed max, not the 2^26 bucket bound)", got, want)
	}
	// Mixed: fast majority, one extreme outlier — p50 stays in the fast
	// bucket, p100 reports the outlier's real value.
	for i := 0; i < 99; i++ {
		w.Observe(100 * time.Microsecond)
	}
	h := w.SinceBoot()
	if p50 := h.Percentile(50); p50 > 256 {
		t.Errorf("p50 = %d µs, want within the fast bucket", p50)
	}
	if p100 := h.Percentile(100); p100 != want {
		t.Errorf("p100 = %d µs, want %d", p100, want)
	}
}

func TestHistBoundNeverExceedsMax(t *testing.T) {
	w := NewWindowedHist(nil)
	// 1000 µs lands in bucket [512, 1024) whose bound is 1024; the
	// reported percentile must clamp to the 1000 µs actually seen.
	w.Observe(1000 * time.Microsecond)
	w.Observe(900 * time.Microsecond)
	if got := w.SinceBoot().Percentile(99); got != 1000 {
		t.Errorf("p99 = %d µs, want clamped to observed max 1000", got)
	}
}

// TestHistPercentileSplit: 90 fast requests and 10 slow ones put p50
// in the fast bucket and p99 in the slow one.
func TestHistPercentileSplit(t *testing.T) {
	w := NewWindowedHist(nil)
	for i := 0; i < 90; i++ {
		w.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		w.Observe(50 * time.Millisecond)
	}
	h := w.SinceBoot()
	if p50 := h.Percentile(50); p50 != 128 {
		t.Errorf("p50 = %dµs, want the fast bucket's 128µs bound", p50)
	}
	if p99 := h.Percentile(99); p99 != 50_000 {
		t.Errorf("p99 = %dµs, want the slow samples' 50ms", p99)
	}
	if m := h.Mean(); m != (90*100+10*50_000)/100 {
		t.Errorf("mean = %d", m)
	}
}

// TestHistExtremes: a negative duration counts as 0 µs, and one past
// the last bucket's lower bound lands in the open-ended bucket.
func TestHistExtremes(t *testing.T) {
	w := NewWindowedHist(nil)
	w.Observe(-time.Second)
	w.Observe(0)
	w.Observe(10 * time.Minute)
	h := w.SinceBoot()
	if h.Count() != 3 || h.Buckets[0] != 2 || h.Buckets[NumBuckets-1] != 1 {
		t.Errorf("count %d, buckets[0] %d, last bucket %d; want 3, 2, 1", h.Count(), h.Buckets[0], h.Buckets[NumBuckets-1])
	}
	if h.SumUS != (10 * time.Minute).Microseconds() {
		t.Errorf("sum = %d µs; the negative sample must count as 0", h.SumUS)
	}
	if h.Percentile(100) != (10 * time.Minute).Microseconds() {
		t.Errorf("p100 = %d", h.Percentile(100))
	}
}

func TestHistCumulative(t *testing.T) {
	w := NewWindowedHist(nil)
	w.Observe(1 * time.Microsecond)
	w.Observe(100 * time.Microsecond)
	w.Observe(time.Hour) // last bucket
	var cum [NumBuckets]int64
	count, sum := w.SinceBoot().Cumulative(&cum)
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	if cum[NumBuckets-1] != 3 {
		t.Errorf("final cumulative = %d, want 3", cum[NumBuckets-1])
	}
	for i := 1; i < NumBuckets; i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("cumulative decreases at bucket %d", i)
		}
	}
	if sum != 1+100+time.Hour.Microseconds() {
		t.Errorf("sum = %d", sum)
	}
}

// TestBucketOf pins the bucket rule: bucket i holds [2^i, 2^(i+1)) µs,
// bucket 0 also 0 µs, the last bucket everything from 2^25 µs up.
func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		us   int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1<<25 - 1, 24}, {1 << 25, 25}, {1 << 40, 25}} {
		if got := bucketOf(tc.us); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.us, got, tc.want)
		}
	}
}

// TestNearestRank pins the one percentile rule both the server's
// histograms and kpload's exact sample sets use.
func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int64
		want int64
	}{
		{50, 100, 50}, {99, 100, 99}, {99.9, 100, 100}, {100, 100, 100}, {0, 100, 1},
		{99, 160, 159}, {50, 1, 1}, {99.9, 1000, 999}, {90, 10, 9},
		{0.07 * 100, 100, 7}, // 7.000000000000001 is rank 7, not 8
	} {
		if got := NearestRank(tc.p, tc.n); got != tc.want {
			t.Errorf("NearestRank(%v, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(Config{})
	ctx, trace := tr.StartRequest(context.Background(), "/v2/score", "")
	if trace == nil {
		t.Fatal("enabled tracer returned nil trace")
	}
	if TraceFrom(ctx) != trace {
		t.Fatal("trace not attached to context")
	}
	hdr := trace.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("traceparent %q is not a W3C header", hdr)
	}
	if id := trace.TraceID(); !strings.Contains(hdr, id) {
		t.Errorf("traceparent %q does not carry trace id %s", hdr, id)
	}
	tr.Finish(trace)

	// An incoming traceparent roots the new trace in the caller's id.
	const in = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	_, child := tr.StartRequest(context.Background(), "/v2/score", in)
	if got := child.TraceID(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id = %s, want the caller's", got)
	}
	out := child.Traceparent()
	if !strings.HasPrefix(out, "00-0af7651916cd43dd8448eb211c80319c-") {
		t.Errorf("echoed traceparent %q lost the caller's trace id", out)
	}
	if strings.Contains(out, "b7ad6b7169203331") {
		t.Errorf("echoed traceparent %q reused the caller's span id", out)
	}
	tr.Finish(child)

	doc := tr.Snapshot()
	if len(doc.Recent) != 2 {
		t.Fatalf("retained %d traces, want 2", len(doc.Recent))
	}
	// Newest first.
	if doc.Recent[0].TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("newest trace id = %s", doc.Recent[0].TraceID)
	}
	if doc.Recent[0].ParentSpanID != "b7ad6b7169203331" {
		t.Errorf("parent span id = %s", doc.Recent[0].ParentSpanID)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short-short-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // future version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero span id
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",  // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x", // trailing junk
	}
	for _, h := range bad {
		if _, _, ok := parseTraceparent(h); ok {
			t.Errorf("parseTraceparent accepted %q", h)
		}
	}
}

func TestTraceSpansAndStageHists(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: time.Hour})
	_, trace := tr.StartRequest(context.Background(), "feed", "")
	now := time.Now()
	trace.Span(StageCrawl, now, int64(2*time.Millisecond))
	trace.Span(StageScore, now, int64(300*time.Microsecond))
	tr.Finish(trace)

	if got := tr.StageWindow(StageCrawl).SinceBoot().Count(); got != 1 {
		t.Errorf("crawl stage count = %d", got)
	}
	if got := tr.StageWindow(StageScore).SinceBoot().Mean(); got != 300 {
		t.Errorf("score stage mean = %d µs, want 300", got)
	}
	doc := tr.Snapshot()
	if len(doc.Recent) != 1 || len(doc.Recent[0].Spans) != 2 {
		t.Fatalf("trace doc: %+v", doc)
	}
	if doc.Recent[0].Spans[0].Stage != "crawl" || doc.Recent[0].Spans[1].Stage != "score" {
		t.Errorf("span stages: %+v", doc.Recent[0].Spans)
	}
}

// TestTraceStagesLaysSpansEndToEnd pins the helper that turns a
// verdict's stage timings into spans: a stage that did not run (zero
// duration) records nothing, the rest follow pipeline order back to
// back from start without overlapping, and together they fit inside
// the trace.
func TestTraceStagesLaysSpansEndToEnd(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: time.Hour})
	_, trace := tr.StartRequest(context.Background(), "/v2/score", "")
	start := time.Now()
	trace.Stages(start, 3000, 0, 5000, 0, 2000)
	time.Sleep(20 * time.Microsecond) // the trace outlives its 10µs of stages

	want := []Stage{StageAnalyze, StageScore, StageExplain}
	got := append([]Span(nil), trace.spans[:trace.nspans]...)
	if len(got) != len(want) {
		t.Fatalf("spans = %+v, want stages %v", got, want)
	}
	var sum int64
	for i, sp := range got {
		if sp.Stage != want[i] {
			t.Errorf("span %d stage = %v, want %v", i, sp.Stage, want[i])
		}
		if sp.DurNS <= 0 {
			t.Errorf("span %d has duration %d", i, sp.DurNS)
		}
		if i > 0 && sp.OffsetNS < got[i-1].OffsetNS+got[i-1].DurNS {
			t.Errorf("span %d starts at %d, inside span %d (%+v)", i, sp.OffsetNS, i-1, got[i-1])
		}
		sum += sp.DurNS
	}
	if got[0].OffsetNS != start.Sub(trace.start).Nanoseconds() {
		t.Errorf("first span offset = %d, want the start's %d", got[0].OffsetNS, start.Sub(trace.start).Nanoseconds())
	}
	tr.Finish(trace)
	rec := tr.ring[0]
	if last := got[len(got)-1]; last.OffsetNS+last.DurNS > rec.durNS || sum > rec.durNS {
		t.Errorf("spans end at %d (sum %d), past the trace's %d ns", last.OffsetNS+last.DurNS, sum, rec.durNS)
	}

	var none *Trace
	none.Stages(start, 1, 1, 1, 1, 1) // must not panic
}

func TestTraceSpanOverflowCounted(t *testing.T) {
	tr := NewTracer(Config{})
	_, trace := tr.StartRequest(context.Background(), "x", "")
	now := time.Now()
	for i := 0; i < MaxSpans+3; i++ {
		trace.Span(StageScore, now, 1)
	}
	tr.Finish(trace)
	if s := tr.Summary(); s.SpansDropped != 3 {
		t.Errorf("spans dropped = %d, want 3", s.SpansDropped)
	}
}

func TestSlowAndErrorExemplars(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: time.Nanosecond}) // everything is slow
	_, a := tr.StartRequest(context.Background(), "slow", "")
	tr.Finish(a)

	fast := NewTracer(Config{SlowThreshold: time.Hour})
	_, b := fast.StartRequest(context.Background(), "ok", "")
	fast.Finish(b)
	_, c := fast.StartRequest(context.Background(), "broken", "")
	c.SetError()
	fast.Finish(c)

	if s := tr.Summary(); s.Slow != 1 || s.RetainedSlow != 1 {
		t.Errorf("slow tracer summary: %+v", s)
	}
	doc := fast.Snapshot()
	if len(doc.Exemplars) != 1 || doc.Exemplars[0].Endpoint != "broken" || !doc.Exemplars[0].Error {
		t.Errorf("error exemplar not retained: %+v", doc.Exemplars)
	}
	if s := fast.Summary(); s.Errors != 1 {
		t.Errorf("errors = %d", s.Errors)
	}
}

// TestDisabledAndNilTracer: a nil tracer is the off switch — it traces
// nothing and every call on it, and on its nil traces, is a no-op.
func TestDisabledAndNilTracer(t *testing.T) {
	var nilT *Tracer
	ctx, trace := nilT.StartRequest(context.Background(), "x", "")
	if trace != nil || TraceFrom(ctx) != nil {
		t.Fatal("nil tracer must trace nothing")
	}
	nilT.Finish(trace) // must not panic
	trace.Span(StageScore, time.Now(), 1)
	trace.SetError()
	if trace.TraceID() != "" || trace.Traceparent() != "" {
		t.Error("nil trace ids must be empty")
	}
	if s := nilT.Summary(); s.Enabled || s.Started != 0 {
		t.Errorf("nil summary: %+v", s)
	}
}

func TestRingBufferWraps(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: time.Hour})
	const n = DefaultRingSize + 10
	for i := 0; i < n; i++ {
		_, trace := tr.StartRequest(context.Background(), "x", "")
		tr.Finish(trace)
	}
	doc := tr.Snapshot()
	if len(doc.Recent) != DefaultRingSize {
		t.Fatalf("retained %d, want ring size %d", len(doc.Recent), DefaultRingSize)
	}
	if s := tr.Summary(); s.Finished != n {
		t.Errorf("finished = %d", s.Finished)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(Config{SlowThreshold: time.Microsecond})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, trace := tr.StartRequest(context.Background(), "x", "")
				TraceFrom(ctx).Span(StageScore, time.Now(), int64(i))
				tr.Finish(trace)
			}
		}()
	}
	wg.Wait()
	if s := tr.Summary(); s.Started != 1600 || s.Finished != 1600 {
		t.Errorf("summary after concurrent run: %+v", s)
	}
	_ = tr.Snapshot()
}

func TestTraceFromZeroAlloc(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if TraceFrom(ctx) != nil {
			t.Fatal("unexpected trace")
		}
	})
	if allocs != 0 {
		t.Fatalf("TraceFrom on an untraced context allocated %.1f times per run, want 0", allocs)
	}
}

func TestUniqueIDs(t *testing.T) {
	tr := NewTracer(Config{})
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		_, trace := tr.StartRequest(context.Background(), "x", "")
		id := trace.TraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
		tr.Finish(trace)
	}
}
