// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (experiments.Index, E1–E12), the design ablations
// (A1–A5), and micro-benchmarks for the hot paths (term extraction,
// Hellinger distance, 212-feature extraction, GBM scoring, target
// identification, crawling).
//
// The table/figure benchmarks run the full experiment per iteration on a
// shared reduced-scale corpus (scale 1/50); cmd/kpexperiments regenerates
// the same artifacts at any scale. Shapes are scale-stable.
package knowphish_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"knowphish/internal/app"
	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/experiments"
	"knowphish/internal/features"
	"knowphish/internal/feed"
	"knowphish/internal/loadgen"
	"knowphish/internal/ml"
	"knowphish/internal/obs"
	"knowphish/internal/racecheck"
	"knowphish/internal/serve"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/terms"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
	benchErr    error
)

func benchSetup(b testing.TB) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner, benchErr = experiments.NewRunner(dataset.Config{
			Seed:  71,
			Scale: 50,
			World: webgen.Config{Seed: 72, Brands: 100, RankedGenerics: 80, VocabularyWords: 140},
		})
	})
	if benchErr != nil {
		b.Fatalf("corpus: %v", benchErr)
	}
	return benchRunner
}

// ---------------------------------------------------------------------
// Per-table / per-figure benchmarks (E1–E12).

func BenchmarkTableV(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab := r.TableV(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableVI(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVII(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableVII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVIII(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableVIII(30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIX(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableIX(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableX(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TableX(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFPReduction(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.FPReduction(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (A1–A5).

func BenchmarkAblationSplit(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationSplit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDistance(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationDistance(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationThreshold(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTrainSize(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationTrainSize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUnseenBrands(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationUnseenBrands(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationClassifier(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.AblationClassifier(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks for the hot paths.

func benchSnapshot(b *testing.B, phish bool) *webpage.Snapshot {
	b.Helper()
	r := benchSetup(b)
	rng := rand.New(rand.NewSource(5))
	var site *webgen.Site
	if phish {
		site = r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
	} else {
		site = r.Corpus.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
	}
	snap, err := crawl.VisitSite(r.Corpus.World, site)
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

func BenchmarkTermExtraction(b *testing.B) {
	snap := benchSnapshot(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := terms.Extract(snap.Text); len(got) == 0 {
			b.Fatal("no terms")
		}
	}
}

// BenchmarkHellinger times one f2 distance as appendF2 computes it: two
// distributions of a page over its ranked dictionary.
func BenchmarkHellinger(b *testing.B) {
	snap := benchSnapshot(b, false)
	a := webpage.Analyze(snap)
	p := a.Ranked(webpage.DistText)
	q := a.Ranked(webpage.DistTitle)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = terms.HellingerRanked(p, q)
	}
}

// BenchmarkAnalyze prices one page's analysis as a request pays for it:
// Analyze and then Release, so that each op analyses into the pooled
// arrays the last one gave back.
func BenchmarkAnalyze(b *testing.B) {
	snap := benchSnapshot(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		webpage.Analyze(snap).Release()
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	r := benchSetup(b)
	snap := benchSnapshot(b, true)
	e := features.Extractor{Rank: r.Corpus.World.Ranking()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := e.ExtractSnapshot(snap); len(v) != features.TotalCount {
			b.Fatal("bad vector")
		}
	}
}

// BenchmarkGBMPredict prices one ensemble prediction in the production
// layout (contiguous node array, children by absolute index, zero
// allocation); the CI benchmark-regression gate watches it. The
// per-tree walk it replaced, now the test oracle in internal/ml, ran
// 680 ns against 371 when it was last measured here (ROADMAP).
func BenchmarkGBMPredict(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	m := d.Model()
	snap := benchSnapshot(b, true)
	e := features.Extractor{Rank: r.Corpus.World.Ranking()}
	v := e.ExtractSnapshot(snap)
	b.Run("layout=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.Score(v)
		}
	})
}

// BenchmarkTracedScore prices the observability layer on the path the
// server runs for a warm request: a memo hit on a phishing page through
// Coalescer.Do, score and target read from the tables into a lent
// target buffer, wrapped in Tracer.StartRequest/Finish with the
// verdict's stage timings turned into spans as serve.scoreHeld does.
// tracing=off is a nil tracer — a nil trace, and Stages a nil no-op —
// so it times the memo hit alone and holds it to zero allocations.
// tracing=on records a pooled trace per iteration; its delta over off
// is the full cost of tracing a request. The bench gate watches both.
func BenchmarkTracedScore(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	pipe := &core.Pipeline{Detector: d, Identifier: target.New(r.Corpus.Engine)}
	rng := rand.New(rand.NewSource(13))
	site := r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
	snap, err := crawl.VisitSite(r.Corpus.World, site)
	if err != nil {
		b.Fatal(err)
	}
	var buf core.TargetBuffer // lent like the server's pooled one
	req := core.NewScoreRequest(snap).WithTargetBuffer(&buf)
	coal := coalesce.New(coalesce.Config{})
	for range 2 { // the miss, then a hit that sizes the lent buffer
		v, err := coal.Do(context.Background(), pipe, req, coalesce.CacheDefault, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !v.TargetRun {
			b.Fatal("the page is not a detector positive: no target table read to time")
		}
	}
	for _, enabled := range []bool{false, true} {
		name := "tracing=off"
		if enabled {
			name = "tracing=on"
		}
		b.Run(name, func(b *testing.B) {
			var tracer *obs.Tracer
			if enabled {
				tracer = obs.NewTracer(obs.Config{})
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tctx, tr := tracer.StartRequest(ctx, "/bench", "")
				var prov core.MemoProvenance
				start := time.Now()
				v, err := coal.Do(tctx, pipe, req, coalesce.CacheDefault, &prov)
				if err != nil {
					b.Fatal(err)
				}
				if !prov.Hit() {
					b.Fatal("memo miss on a warm page")
				}
				t := &v.Timings
				obs.TraceFrom(tctx).Stages(start, t.AnalyzeNS, t.FeaturesNS, t.ScoreNS, t.TargetNS, t.ExplainNS)
				tracer.Finish(tr)
			}
		})
	}
}

func BenchmarkGBMTrain(b *testing.B) {
	r := benchSetup(b)
	x, y := r.TrainMatrix()
	cfg := ml.GBMConfig{Trees: 30, MaxDepth: 3, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.TrainGBM(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusBuild times the other half of set-up: world
// generation, the campaigns' crawls and the search index at the scale and
// recipe every self-trained server boots with (app.BuildCorpus). It runs
// on all cores; -cpu 1 prices the sequential build. cpu-ms/op is the
// process's user + system CPU time per build: beside ns/op it tells less
// work from more overlap.
func BenchmarkCorpusBuild(b *testing.B) {
	cpu0 := processCPU(b)
	for i := 0; i < b.N; i++ {
		if _, err := app.BuildCorpus(20, 42); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(processCPU(b)-cpu0)/1e6/float64(b.N), "cpu-ms/op")
}

// processCPU returns the user + system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func BenchmarkTargetIdentification(b *testing.B) {
	r := benchSetup(b)
	id := target.New(r.Corpus.Engine)
	snap := benchSnapshot(b, true)
	a := webpage.Analyze(snap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = id.Identify(a)
	}
}

// BenchmarkSearchQuery times the index kernel on the two queries
// Identify issues for the benchmark phishing page: step 1's boosted
// keyterms, and step 2's prominent keyterms plus the landing mld terms.
// Warm, a query allocates its returned results and nothing else.
func BenchmarkSearchQuery(b *testing.B) {
	r := benchSetup(b)
	a := webpage.Analyze(benchSnapshot(b, true))
	kt := target.ExtractKeyterms(a, target.DefaultKeyterms)
	step1 := kt.Boosted
	if len(step1) == 0 {
		step1 = kt.Prominent
	}
	step2 := append(slices.Clone(kt.Prominent), terms.Extract(a.Land.UnicodeRDN())...)
	for _, bc := range []struct {
		shape string
		query []string
	}{{"step1", step1}, {"step2", step2}} {
		b.Run("shape="+bc.shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := r.Corpus.Engine.Query(bc.query, target.DefaultResults); len(res) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkServeScore drives the HTTP serving path end to end: one batch
// request of mixed phish/legit pages through Server.ServeHTTP. The same
// 32 pages are replayed, so after the first iteration every page is a
// memo hit: what is measured is request decode, snapshot hashing, memo
// lookups and response encode, not the pipeline
// (BenchmarkCoalescedScore/memo=cold measures that). The workers
// sub-benchmarks show the batch fan-out from serial to GOMAXPROCS.
func BenchmarkServeScore(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var pages []serve.PageRequest
	for i := 0; i < 32; i++ {
		var site *webgen.Site
		if i%2 == 0 {
			site = r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
		} else {
			site = r.Corpus.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		}
		snap, err := crawl.VisitSite(r.Corpus.World, site)
		if err != nil {
			b.Fatal(err)
		}
		pages = append(pages, serve.PageRequest{Snapshot: snap})
	}

	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srv, err := serve.New(serve.Config{
				Detector:   d,
				Identifier: target.New(r.Corpus.Engine),
				Workers:    workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			body, err := json.Marshal(serve.BatchRequest{Pages: pages, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/score/batch", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a benchmark
// of a handler does not measure httptest's recorder.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkDecodeScoreRequest prices reading and decoding one /v2/score
// body. The serving layer has no public decoder, so one op is a POST
// whose cache_control the handler rejects right after decoding: pooled
// body read + decode + a one-line 400. path=fast is the body as
// json.Marshal writes it, which the strict scanner takes; path=fallback
// is the same body with its first key spelled "HTML", which only
// encoding/json accepts. Request and writer are reused, so allocs/op is
// the handler's own.
func BenchmarkDecodeScoreRequest(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Detector: d, Identifier: target.New(r.Corpus.Engine)})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var page *webgen.Page
	for page == nil || len(page.HTML) < 3000 {
		site := r.Corpus.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		page = site.Pages[site.StartURL]
	}
	fast, err := json.Marshal(serve.V2ScoreRequest{
		PageRequest: serve.PageRequest{
			HTML:             page.HTML,
			StartingURL:      page.URL,
			LandingURL:       page.URL,
			RedirectionChain: []string{page.URL, page.URL},
		},
		ScoreOptions: serve.ScoreOptions{CacheControl: "rejected-after-decode"},
	})
	if err != nil {
		b.Fatal(err)
	}
	fallback := bytes.Replace(fast, []byte(`{"html":`), []byte(`{"HTML":`), 1)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"path=fast", fast}, {"path=fallback", fallback}} {
		b.Run(bc.name, func(b *testing.B) {
			rd := bytes.NewReader(bc.body)
			req := httptest.NewRequest(http.MethodPost, "/v2/score", rd)
			w := &discardWriter{header: http.Header{}}
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(bc.body)
				srv.ServeHTTP(w, req)
				if w.status != http.StatusBadRequest {
					b.Fatalf("status %d, want the 400 for the unknown cache_control", w.status)
				}
			}
		})
	}
}

// coalescedScorePages is BenchmarkCoalescedScore's pipeline and its 32
// requests: generated phish at even indices, English legitimate pages at
// odd ones.
func coalescedScorePages(tb testing.TB) (*core.Pipeline, []core.ScoreRequest) {
	r := benchSetup(tb)
	d, err := r.Detector(0)
	if err != nil {
		tb.Fatal(err)
	}
	pipe := &core.Pipeline{Detector: d, Identifier: target.New(r.Corpus.Engine)}
	rng := rand.New(rand.NewSource(11))
	var reqs []core.ScoreRequest
	for i := 0; i < 32; i++ {
		var site *webgen.Site
		if i%2 == 0 {
			site = r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
		} else {
			site = r.Corpus.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		}
		snap, err := crawl.VisitSite(r.Corpus.World, site)
		if err != nil {
			tb.Fatal(err)
		}
		reqs = append(reqs, core.NewScoreRequest(snap))
	}
	return pipe, reqs
}

// BenchmarkCoalescedScore measures the content-addressed stage memo
// (internal/coalesce) under conc concurrent callers, with the score and
// target tables cold (disabled, so every request computes every stage) or
// warm (pre-populated, so requests ride the content-addressed fast
// path). Per-op time is one scored page. The warm sub-benchmarks are
// the steady-state claim: repeated content must be near-free and
// allocation-free.
//
// A cold arm's allocs/op is a mean over the 32 pages, which testing
// truncates to an integer. In steady state each of the 21 pages scored
// below the threshold costs 1 allocation, each of the nine phish whose
// target is named 4, the one the identifier confirms legitimate 3, and
// one phish (index 8) 42: its identification falls back to OCR (step 4).
// The 32 pages sum to 102 allocations, a mean of 3.19
// (TestCoalescedScoreColdAllocs pins a named phish, a legitimate page
// and the OCR phish). A run adds a warm-up cost of roughly 300 to 1 800
// allocations (each of the conc×GOMAXPROCS goroutines fills the pools
// and grows its lent target buffer, and every GC cycle empties the pools
// again), so the arm reads 3 unless that cost exceeds 0.81×b.N. On a
// 2-vCPU host conc=64 read 10 at 100x, 4 at 1000x, and 3 at 5000x and
// at the default 1s (≈10 000 ops) that the bench gate runs.
//
// conc is 1 and 64 only: the code is the same at every concurrency,
// and the two ends show what contention on the tables costs.
func BenchmarkCoalescedScore(b *testing.B) {
	pipe, reqs := coalescedScorePages(b)
	ctx := context.Background()
	for _, conc := range []int{1, 64} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("conc=%d/memo=%s", conc, mode), func(b *testing.B) {
				memo := 0 // default table size
				if mode == "cold" {
					memo = -1 // memoization disabled
				}
				coal := coalesce.New(coalesce.Config{MemoEntries: memo})
				if mode == "warm" {
					for _, req := range reqs {
						if _, err := coal.Do(ctx, pipe, req, coalesce.CacheDefault, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
				var next atomic.Int64
				b.ReportAllocs()
				b.SetParallelism(conc) // conc goroutines per GOMAXPROCS
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					// One lent target buffer per goroutine, as the server
					// lends one per request.
					var buf core.TargetBuffer
					for pb.Next() {
						req := reqs[int(next.Add(1))%len(reqs)].WithTargetBuffer(&buf)
						if _, err := coal.Do(ctx, pipe, req, coalesce.CacheDefault, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// TestCoalescedScoreColdAllocs pins the steady-state allocations behind
// BenchmarkCoalescedScore's memo=cold arms: one phish whose target is
// named, one page scored below the threshold and the phish whose
// identification falls back to OCR, each through a memo-disabled Do with
// a lent target buffer.
func TestCoalescedScoreColdAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("-race instrumentation allocates")
	}
	pipe, reqs := coalescedScorePages(t)
	coal := coalesce.New(coalesce.Config{MemoEntries: -1})
	var buf core.TargetBuffer
	allocs := func(req core.ScoreRequest) float64 {
		req = req.WithTargetBuffer(&buf)
		return testing.AllocsPerRun(20, func() {
			if _, err := coal.Do(context.Background(), pipe, req, coalesce.CacheDefault, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := allocs(reqs[0]); got != 3 {
		t.Errorf("phish (target named): %v allocs, want 3", got)
	}
	if got := allocs(reqs[1]); got != 0 {
		t.Errorf("legitimate page: %v allocs, want 0", got)
	}
	if got := allocs(reqs[8]); got != 41 {
		t.Errorf("OCR-fallback phish: %v allocs, want 41", got)
	}
}

// BenchmarkContentKey is the cost of the system's one content identity:
// the length-prefixed preimage of a crawled page built in a pooled
// buffer and one sha256 pass over it. Every scoring request pays it
// exactly once, hit or miss, so the gate gives it a trajectory and
// holds it to zero allocations.
func BenchmarkContentKey(b *testing.B) {
	r := benchSetup(b)
	rng := rand.New(rand.NewSource(13))
	site := r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
	snap, err := crawl.VisitSite(r.Corpus.World, site)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		webpage.ContentKey(snap)
	}
}

// BenchmarkFeedIngest drives the continuous ingestion pipeline end to
// end: a batch of synthetic-world URLs enters the scheduler, is crawled,
// scored, target-identified and persisted to the segmented verdict
// store.
// The workers sub-benchmarks show enqueue→persist throughput scaling
// from a serial worker loop to GOMAXPROCS fan-out. Per-domain rate
// limiting is disabled — the measurement is pipeline throughput, not
// politeness.
func BenchmarkFeedIngest(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	var urls []string
	fetchers := []crawl.Fetcher{r.Corpus.World}
	for i := 0; i < 32; i++ {
		var site *webgen.Site
		if i%2 == 0 {
			site = r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
		} else {
			site = r.Corpus.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		}
		fetchers = append(fetchers, site)
		urls = append(urls, site.StartURL)
	}
	fetcher := crawl.Compose(fetchers...)

	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			st, err := store.Open(store.Config{Path: filepath.Join(b.TempDir(), "verdicts")})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			sched, err := feed.New(feed.Config{
				Fetcher:    fetcher,
				Pipeline:   &core.Pipeline{Detector: d, Identifier: target.New(r.Corpus.Engine)},
				Store:      st,
				Workers:    workers,
				QueueDepth: 2 * len(urls),
				DomainRate: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, u := range urls {
					if err := sched.Enqueue(u); err != nil {
						b.Fatal(err)
					}
				}
				if !sched.Wait(time.Now().Add(time.Minute)) {
					b.Fatal("ingestion stalled")
				}
			}
			b.StopTimer()
			if dropped := sched.Drain(time.Now().Add(time.Minute)); dropped != 0 {
				b.Fatalf("drain dropped %d", dropped)
			}
			if stats := sched.Stats(); stats.Failed != 0 {
				b.Fatalf("feed failures: %+v", stats)
			}
			b.ReportMetric(float64(len(urls)), "urls/op")
		})
	}
}

func BenchmarkCrawlVisit(b *testing.B) {
	r := benchSetup(b)
	rng := rand.New(rand.NewSource(6))
	site := r.Corpus.World.NewPhishSite(rng, webgen.PhishOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crawl.VisitSite(r.Corpus.World, site); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := webgen.New(webgen.Config{Seed: int64(i + 1), Brands: 50, RankedGenerics: 50, VocabularyWords: 80})
		if len(w.Brands) != 50 {
			b.Fatal("bad world")
		}
	}
}

func BenchmarkPhishGeneration(b *testing.B) {
	r := benchSetup(b)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site := r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
		if !site.IsPhish {
			b.Fatal("not phish")
		}
	}
}

// BenchmarkAnalyzeCtx measures the v2 pipeline entry point and prices
// the explanation feature: explain=none is the production fast path,
// explain=top adds one decision-path walk per tree, explain=full adds
// the same walk plus full contribution sorting. The delta between
// sub-benchmarks is the exact cost a client opts into with an explain
// level.
func BenchmarkAnalyzeCtx(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	pipe := &core.Pipeline{Detector: d, Identifier: target.New(r.Corpus.Engine)}
	rng := rand.New(rand.NewSource(12))
	var snaps []*webpage.Snapshot
	for i := 0; i < 16; i++ {
		var site *webgen.Site
		if i%2 == 0 {
			site = r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
		} else {
			site = r.Corpus.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		}
		snap, err := crawl.VisitSite(r.Corpus.World, site)
		if err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	ctx := context.Background()
	for _, lvl := range []struct {
		name  string
		level core.ExplainLevel
	}{
		{"explain=none", core.ExplainNone},
		{"explain=top", core.ExplainTop},
		{"explain=full", core.ExplainFull},
	} {
		b.Run(lvl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap := snaps[i%len(snaps)]
				v, err := pipe.AnalyzeCtx(ctx, core.ScoreRequest{Snapshot: snap, Options: core.Options{Explain: lvl.level}})
				if err != nil {
					b.Fatal(err)
				}
				if v.Score < 0 || v.Score > 1 {
					b.Fatal("score out of range")
				}
			}
		})
	}
}

// BenchmarkScoreBatchCancelled demonstrates bounded work after
// cancellation: a pre-cancelled context over batches of very different
// sizes costs near-constant time — the pool never starts items once
// ctx is done, so abandoned requests stop consuming CPU. Compare
// n=64 with n=1024: without cancellation the latter is 16× the work;
// cancelled, both cost microseconds.
func BenchmarkScoreBatchCancelled(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	site := r.Corpus.World.NewPhishSite(rng, r.Corpus.World.RandomPhishOptions(rng))
	snap, err := crawl.VisitSite(r.Corpus.World, site)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{64, 1024} {
		reqs := make([]core.ScoreRequest, n)
		for i := range reqs {
			reqs[i] = core.NewScoreRequest(snap)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs, err := d.ScoreBatchCtx(ctx, reqs, 0)
				if err == nil {
					b.Fatal("cancelled batch reported no error")
				}
				done := 0
				for _, v := range vs {
					if v != nil {
						done++
					}
				}
				if done > runtime.GOMAXPROCS(0)*4 {
					b.Fatalf("cancelled batch still ran %d of %d items", done, n)
				}
			}
		})
	}
}

// storeBenchOpen opens a fresh segmented verdict store. Automatic
// compaction is disabled (in BenchmarkStoreAppend's stores too) so the
// append and scan benchmarks measure the engine's steady-state path,
// not compaction scheduling.
func storeBenchOpen(b *testing.B) store.Backend {
	b.Helper()
	st, err := store.Open(store.Config{Path: filepath.Join(b.TempDir(), "verdicts"), CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	return st
}

func storeBenchRecord(i int) store.Record {
	return store.Record{
		URL:         fmt.Sprintf("http://lure.test/%d", i),
		LandingURL:  fmt.Sprintf("http://land.test/%d", i),
		Fingerprint: "fp",
		Target:      "novabank.com",
		Outcome:     core.Outcome{Score: 0.9, DetectorPhish: true, FinalPhish: true},
		ScoredAt:    time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
	}
}

// storeAppendBlock is how many records BenchmarkStoreAppend appends
// into one store before it starts a fresh one. The index's row chunk
// (1 024 rows) and maps grow within a block, so their growth is the same
// share of every append whatever b.N the run chose, and B/op does not
// move with the iteration count.
const storeAppendBlock = 1024

// BenchmarkStoreAppend measures one durable verdict append per
// iteration — frame encoding plus the buffered segment write — into a
// store holding fewer than storeAppendBlock records; opening and
// closing each block's store is untimed. The sub-benchmark name dates
// from when a second engine ran beside it; it is kept so the gate's
// history stays comparable.
func BenchmarkStoreAppend(b *testing.B) {
	b.Run("backend=segmented", func(b *testing.B) {
		ctx := context.Background()
		var st store.Backend
		var dir string
		closeBlock := func() {
			if st == nil {
				return
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%storeAppendBlock == 0 {
				b.StopTimer()
				closeBlock()
				var err error
				dir = b.TempDir()
				if st, err = store.Open(store.Config{Path: filepath.Join(dir, "verdicts"), CompactEvery: -1}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if err := st.Append(ctx, storeBenchRecord(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		closeBlock()
	})
}

// BenchmarkStoreScan measures one 100-record newest-first query page
// over a 4096-record store — the /v1 and /v2 verdicts read path. The
// engine filters and orders from its index and reads the page's frames
// raw, one pread per run of frames adjacent on disk. The
// backend=segmented arm is Scan, into a fresh page; form=append is
// AppendScan into the previous page's storage, as the verdict handler
// reads with its pooled buffers.
func BenchmarkStoreScan(b *testing.B) {
	const records = 4096
	st := storeBenchOpen(b) // both arms read one store
	for i := 0; i < records; i++ {
		if err := st.Append(context.Background(), storeBenchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	q := store.Query{Limit: 100}
	b.Run("backend=segmented", func(b *testing.B) {
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			page, err := st.Scan(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			if len(page.Payloads) != 100 {
				b.Fatalf("page = %d records, want 100", len(page.Payloads))
			}
		}
	})
	b.Run("backend=segmented/form=append", func(b *testing.B) {
		ctx := context.Background()
		var page store.ScanPage
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			page, err = st.AppendScan(ctx, store.ScanPage{Payloads: page.Payloads[:0], Frames: page.Frames[:0]}, q)
			if err != nil {
				b.Fatal(err)
			}
			if len(page.Payloads) != 100 {
				b.Fatalf("page = %d records, want 100", len(page.Payloads))
			}
		}
	})
}

// BenchmarkVerdictsPage measures one GET /v2/verdicts?limit=100 through
// Server.ServeHTTP over a segmented store of 500 records, request and
// recorder included (TestVerdictsPageAllocs in internal/serve pins the
// same call's allocation count): query parsing, the index walk, one
// read of the page's frames with a CRC check each, and the envelope
// spliced around the stored documents.
func BenchmarkVerdictsPage(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(store.Config{Path: filepath.Join(b.TempDir(), "verdicts"), SegmentBytes: 64 << 10, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	for i := 0; i < 500; i++ {
		if err := st.Append(context.Background(), storeBenchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := serve.New(serve.Config{Detector: d, Identifier: target.New(r.Corpus.Engine), Store: st})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v2/verdicts?limit=100", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() < 100*100 {
			b.Fatalf("status %d, %d-byte body: %s", rec.Code, rec.Body.Len(), rec.Body.String())
		}
	}
}

// BenchmarkStoreReopen measures cold-start time over an existing
// verdict log — the restart-recovery path: load a binary snapshot and
// replay only the frames past its watermark. The snapshot=none arms
// delete snapshot.bin before each timed open, so they time the full
// replay every segment costs without it: the gap is what the snapshot
// earns.
func BenchmarkStoreReopen(b *testing.B) {
	for _, records := range []int{10000, 100000} {
		// Both arms reopen one log, built once.
		cfg := store.Config{Path: filepath.Join(b.TempDir(), fmt.Sprintf("verdicts-%d", records)), CompactEvery: -1}
		st, err := store.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for i := 0; i < records; i++ {
			if err := st.Append(ctx, storeBenchRecord(i)); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		reopen := func(b *testing.B, snapshot bool) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !snapshot {
					b.StopTimer()
					if err := os.Remove(filepath.Join(cfg.Path, "snapshot.bin")); err != nil && !os.IsNotExist(err) {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				st, err := store.Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if st.Len() != records {
					b.Fatalf("reopened Len = %d, want %d", st.Len(), records)
				}
				b.StopTimer() // measure the open, not the close
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
		b.Run(fmt.Sprintf("backend=segmented/records=%d", records), func(b *testing.B) { reopen(b, true) })
		b.Run(fmt.Sprintf("backend=segmented/records=%d/snapshot=none", records), func(b *testing.B) { reopen(b, false) })
	}
}

// BenchmarkWindowedHist prices one latency observation — the cost the
// serving layer adds to every successful request (and the tracer to
// every span) for its since-boot and rolling 1m/5m/1h percentiles. The
// path computes the bucket once and feeds three slots: the since-boot
// histogram and, after one epoch check each, the current 1 s and 1 min
// ring slots — all atomics; the gate pins it at 0 allocs/op.
func BenchmarkWindowedHist(b *testing.B) {
	w := obs.NewWindowedHist(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

// BenchmarkLoadEndToEnd is the macro benchmark behind `make load-smoke`
// and the bench gate: the kpserve process assembly (internal/app —
// detector, feed pipeline draining through the shared stage memo,
// tracer, a verdict store in a fresh directory) on a real HTTP
// listener, loaded by the internal/loadgen closed loop with a fixed
// request budget per iteration. One op is one full load run; the reported url/s is the
// sustained submission throughput, and the benchmark fails if the
// server loses a verdict (accepted but neither persisted nor failed).
func BenchmarkLoadEndToEnd(b *testing.B) {
	r := benchSetup(b)
	d, err := r.Detector(0)
	if err != nil {
		b.Fatal(err)
	}
	world := r.Corpus.World
	var corpus []string
	for _, brand := range world.Brands {
		corpus = append(corpus, world.BrandSiteURLs(brand)...)
	}

	const budget = 256 // requests per load run
	b.ReportAllocs()
	b.ResetTimer()
	var last loadgen.Report
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := app.Start(app.Config{
			World:      &app.World{Detector: d, Engine: r.Corpus.Engine, Fetcher: world},
			StorePath:  filepath.Join(b.TempDir(), "verdicts"),
			DomainRate: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- a.Serve(ln) }()
		b.StartTimer()

		rep, err := loadgen.Run(context.Background(), loadgen.Config{
			TargetURL: "http://" + ln.Addr().String(),
			Corpus:    corpus,
			Workers:   runtime.GOMAXPROCS(0),
			Requests:  budget,
		})
		if err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		if err := a.Close(); err != nil {
			b.Fatal(err)
		}
		if err := <-served; err != nil {
			b.Fatal(err)
		}
		fs := a.Feed.Stats()
		if fs.Dropped != 0 {
			b.Fatalf("drain dropped %d accepted URLs", fs.Dropped)
		}
		if fs.Processed+fs.Failed != fs.Accepted {
			b.Fatalf("verdict loss: accepted %d, processed %d + failed %d", fs.Accepted, fs.Processed, fs.Failed)
		}
		if rep.Errors > 0 {
			b.Fatalf("load run saw %d request errors", rep.Errors)
		}
		last = rep
		b.StartTimer()
	}
	b.ReportMetric(last.SustainedQPS, "url/s")
	b.ReportMetric(float64(last.LatencyP99US), "p99-µs")
}
