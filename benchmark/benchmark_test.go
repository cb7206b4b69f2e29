package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100}, {0.05, 10}, {0.1, 10}, {0.11, 20},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

// A tail percentile is quoted only with ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true}, {9999, 0.999, false},
		{200, 0.95, true}, {199, 0.95, false}, {100, 0.90, true}, {99, 0.90, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(n=%d, q=%v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	if q, v, ok := tail(sample); !ok || q != 0.99 || v != 990 {
		t.Errorf("tail of 1000 samples = p%v %v %v, want p0.99 = 990", q, v, ok)
	}
	if q, _, ok := tail(sample[:250]); !ok || q != 0.95 {
		t.Errorf("tail of 250 samples quotes p%v (%v), want p0.95", q, ok)
	}
	if _, _, ok := tail(sample[:99]); ok {
		t.Error("tail of 99 samples quotes a percentile, want none")
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []float64{5, 1, 4, 2, 3}
	if got := median(rounds); got != 3 {
		t.Errorf("median of five rounds = %v, want 3", got)
	}
	if rounds[0] != 5 {
		t.Error("median reordered the caller's rounds")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	m := overRounds("x", "ms", rounds, 50)
	if m.Value != 3 || m.Min != 1 || m.Max != 5 || len(m.Rounds) != 5 || m.Samples != 50 {
		t.Errorf("overRounds = %+v", m)
	}
}

// A child is a re-run of part of its parent, so it is subtracted whole,
// from its direct parent only.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "handler", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "from_html", Start: 1000, End: 1300},
		{ID: 3, Parent: 2, Name: "parse", Start: 1300, End: 1500},
		{ID: 4, Parent: 1, Name: "analyze", Start: 1500, End: 1900},
		{ID: 5, Name: "probe", Start: 1900, End: 2000},
		{ID: 6, Parent: 5, Name: "outlasts", Start: 2000, End: 2500},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 300, 2: 100, 3: 200, 4: 400, 5: 0, 6: 500}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	rootP50, sum, roots := ledger(spans, "handler")
	if rootP50 != 1 || roots != 1 || math.Abs(sum-0.7) > 1e-9 {
		t.Errorf("ledger = root %v us, leaves %v us over %d roots, want 1, 0.7, 1", rootP50, sum, roots)
	}
}

// The cut points are those of Python's statistics.quantiles(v, n=4).
func TestQuartilesAsTheDriverReadsThem(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		if q1, q2, q3 := quartiles(c.v); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestRecorderNestsAndOrders(t *testing.T) {
	r := newRecorder()
	root := r.begin(7, 0, "root")
	child := r.begin(7, root, "child")
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Req != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if r.spans[0].dur() < r.spans[1].dur() || r.spans[1].dur() < 0 {
		t.Errorf("nested span outlasts its parent: %+v", r.spans)
	}
}

// smokeScale trains a smaller detector over a smaller search index than
// the benchmark proper, to keep the package's tests short.
const smokeScale = 60

var smokeSUT = sync.OnceValues(func() (*sut, error) {
	s, _, err := setUp(smokeScale, 1)
	return s, err
})

func hashes(t *testing.T, s *sut, w workload, seed int64) []string {
	t.Helper()
	in, err := generate(s, w, roundRNG(seed, w, 1), 24)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(in.order))
	for i := range in.order {
		h := in.at(i).hash
		out[i] = string(h[:])
	}
	return out
}

func TestSeedDecidesInputs(t *testing.T) {
	s, err := smokeSUT()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, again, b := hashes(t, s, w, 1), hashes(t, s, w, 1), hashes(t, s, w, 2)
		if strings.Join(a, "") != strings.Join(again, "") {
			t.Errorf("%s: the same seed generated different pages", w.name)
		}
		other := map[string]bool{}
		for _, h := range b {
			other[h] = true
		}
		shared := 0
		for _, h := range a {
			if other[h] {
				shared++
			}
		}
		// Brand pages are persistent, so two seeds may both visit one.
		if shared > len(a)/4 {
			t.Errorf("%s: seeds 1 and 2 share %d of %d pages", w.name, shared, len(a))
		}
	}
}

// TestSmoke drives all four workloads, untraced and traced, at 1/50 of
// the reference budget, so the harness cannot rot between PRs.
func TestSmoke(t *testing.T) {
	s, err := smokeSUT()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := options{seed: 1, seconds: refSeconds / 50, outDir: dir}
	setup := []float64{1.5, 1, 2}
	var out bytes.Buffer
	correct, err := run(o, s, setup, &out, &bytes.Buffer{})
	if err != nil || !correct {
		t.Fatalf("untraced run: correct=%v err=%v\n%s", correct, err, out.String())
	}
	var rep report
	b, err := os.ReadFile(filepath.Join(dir, reportFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, wr := range rep.Workloads {
		for _, m := range wr.Metrics {
			if !m.Info && (m.Value <= 0 || m.Samples == 0) {
				t.Errorf("%s %s = %v over %d samples, want a positive measurement", wr.Workload, m.Name, m.Value, m.Samples)
			}
		}
	}

	o.trace = true
	out.Reset()
	if correct, err := run(o, s, setup, &out, &bytes.Buffer{}); err != nil || !correct {
		t.Fatalf("traced run: correct=%v err=%v\n%s", correct, err, out.String())
	}
	listed := perLayerNames(t)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Metrics map[string]struct{ Value float64 } `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	for _, name := range listed {
		if _, ok := last.Metrics[name]; !ok {
			t.Errorf("traced result lacks %s, which BENCHMARK.json lists", name)
		}
	}
	if len(last.Metrics) != len(listed) {
		t.Errorf("traced result has %d metrics, BENCHMARK.json lists %d", len(last.Metrics), len(listed))
	}
	for _, name := range []string{"ledger.md", "trace-cold_phish.json", "trace-cold_legit.json", "trace-warm_replay.json", "trace-feed_ingest.json"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("traced run left no %s: %v", name, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "store-*")); len(left) > 0 {
		t.Errorf("feed stores left behind: %v", left)
	}
}

// perLayerNames reads the per-layer metric names BENCHMARK.json promises.
func perLayerNames(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(doc.PerLayer))
	for i, m := range doc.PerLayer {
		names[i] = m.Name
	}
	return names
}
