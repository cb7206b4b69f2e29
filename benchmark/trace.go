package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// traced makes the traced run of one workload. Counters and
// client-observed numbers come from one loaded round (after the
// discarded one); timings come from replaying that round's first inputs
// on one goroutine through each layer's public functions.
func (rn *runner) traced(w workload, o options, log io.Writer) (workloadReport, error) {
	wr := workloadReport{Workload: w.name}
	var in *inputs
	var loaded *round
	for i := 0; i <= warmupRounds; i++ {
		var err error
		if in, err = generate(rn.s, w, roundRNG(o.seed, w, i), scaled(w.size, o.seconds)); err != nil {
			return wr, err
		}
		if loaded, err = rn.run(w, in); err != nil {
			return wr, err
		}
		wr.tally(loaded)
		fmt.Fprintf(log, "%s loaded round %d: %d ops in %.3f s, %d failed\n", w.name, i, loaded.ops, loaded.wall.Seconds(), loaded.failed)
	}
	wr.UniquePages = loaded.unique

	n := scaled(traceInputs, o.seconds)
	if n > len(in.order) {
		n = len(in.order)
	}
	pages := make([]page, n)
	for i := range pages {
		pages[i] = in.at(i)
	}
	t, err := rn.s.newTracer(pages, rn.outDir)
	if err != nil {
		return wr, err
	}
	defer t.close()
	if w.name == warmReplay {
		for _, p := range in.pages { // the untimed fill pass
			t.fill(p)
		}
	}
	for i, p := range pages {
		wr.Attempted++
		if err := t.request(i, p); err != nil {
			wr.Failed++
			wr.Breaches = append(wr.Breaches, err.Error())
		}
	}
	null, err := nullRTT(pages[0].body, n)
	if err != nil {
		return wr, err
	}
	wr.Correct = wr.Failed == 0
	fmt.Fprintf(log, "%s traced %d inputs, %d spans\n", w.name, n, len(t.rec.spans))

	wr.Metrics = perLayerMetrics(w, loaded, t, null)
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, o.seed, t.rec.spans})
	if err != nil {
		return wr, err
	}
	return wr, os.WriteFile(filepath.Join(rn.outDir, "trace-"+w.name+".json"), b, 0o644)
}

// nullRTT posts body n times on one connection to a handler that drains
// it and answers a canned 200: the load generator's own floor.
func nullRTT(body []byte, n int) ([]float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // drained only to be timed
		_, _ = io.WriteString(w, `{"ok":true}`)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // ErrServerClosed after Close below
	}()
	client, closeConns := newClient(1)
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n && err == nil; i++ {
		ts := time.Now()
		_, _, err = do(client, http.MethodPost, "http://"+ln.Addr().String()+"/", body)
		lat = append(lat, time.Since(ts))
	}
	closeConns()
	_ = hs.Close() // nothing in flight
	<-done
	return micros(lat), err
}

// ledger adds up, for the spans named root, the leaf stages recorded
// under them: each stage's p50 weighted by the share of roots that ran
// it. It returns the root's p50 and count beside that sum.
func ledger(spans []span, root string) (rootP50, sum float64, roots int) {
	isRoot := map[int]bool{}
	var rootDur []float64
	for _, s := range spans {
		if s.Name == root {
			isRoot[s.ID] = true
			rootDur = append(rootDur, float64(s.dur())/1e3)
		}
	}
	stage := map[string][]float64{}
	for _, s := range spans {
		if isRoot[s.Parent] {
			stage[s.Name] = append(stage[s.Name], float64(s.dur())/1e3)
		}
	}
	for _, d := range stage {
		sum += median(d) * ratio(float64(len(d)), float64(len(rootDur)))
	}
	return median(rootDur), sum, len(rootDur)
}

// perLayerMetrics names every per-layer number of the traced run.
func perLayerMetrics(w workload, loaded *round, t *tracer, null []float64) []metric {
	st := layerStats(t.rec.spans)
	us := func(name string) metric {
		s := st[name]
		m := metric{Name: name + "_us", Unit: "us", Value: s.p50, Min: s.p50, Max: s.p50, Samples: s.n}
		if s.tailQ > 0 {
			m.Tail = fmt.Sprintf("p%g=%.1f self_p50=%.1f", s.tailQ*100, s.tailV, s.selfP50)
		} else {
			m.Tail = fmt.Sprintf("self_p50=%.1f", s.selfP50)
		}
		return m
	}

	// What the pipeline itself reported on the traced inputs.
	var steps, tAnalyze, tFeatures, tScore, tTarget []float64
	ran := 0
	for _, v := range t.ref {
		tAnalyze = append(tAnalyze, float64(v.analyzeNS)/1e3)
		tFeatures = append(tFeatures, float64(v.featuresNS)/1e3)
		tScore = append(tScore, float64(v.scoreNS)/1e3)
		if v.targetRun {
			ran++
			steps = append(steps, float64(v.steps))
			tTarget = append(tTarget, float64(v.targetNS)/1e3)
		}
	}
	runShare := ratio(float64(ran), float64(len(t.ref)))
	timing := func(name string, vals []float64) metric {
		return single(name, "us", percentile(ascending(vals), 0.5), len(vals))
	}
	// Identification's own clock exists only where detector positives
	// do: absent on cold_legit, so it is printed but not listed.
	targetTiming := timing("core.timings.target_us", tTarget)
	targetTiming.Info = true

	// What the client saw and the program counted in the loaded round.
	lat := micros(loaded.lat)
	p99 := 0.0
	if supported(len(lat), 0.99) {
		p99 = percentile(lat, 0.99) / 1e3
	}
	// Transport is what the socket, the HTTP stack and waiting for a CPU
	// add to the handler: on feed_ingest, to the verdict pages read
	// beside the ingest (their client p50 is the demoted read_p50_ms).
	clientP50, handler := percentile(lat, 0.5), spHandler
	if w.name == feedIngest {
		clientP50, handler = percentile(micros(loaded.readLat), 0.5), spReadHandler
	}
	c, c0 := loaded.ctr, loaded.before
	hits, misses := float64(c.cacheHits-c0.cacheHits), float64(c.cacheMisses-c0.cacheMisses)
	memo := func(i int) float64 {
		h, m := float64(c.memoHits[i]-c0.memoHits[i]), float64(c.memoMisses[i]-c0.memoMisses[i])
		return ratio(h, h+m)
	}

	// The ledger: how much of the request's root span its leaf stages
	// explain, and how much of the time observed from outside.
	root, observed := spHandler, clientP50
	if w.name == feedIngest {
		// A URL's service time: the scheduler's workers (GOMAXPROCS)
		// divided by URLs persisted per second.
		root = spFeedProcess
		observed = ratio(float64(runtime.GOMAXPROCS(0))*1e6, ratio(float64(loaded.ops), loaded.wall.Seconds()))
	}
	rootP50, sum, roots := ledger(t.rec.spans, root)

	ops := float64(loaded.ops)
	return []metric{
		single("client.null_rtt_us", "us", percentile(null, 0.5), len(null)),
		single("client.throughput_rps", "1/s", ratio(ops, loaded.wall.Seconds()), loaded.ops),
		single("client.latency_p50_us", "us", percentile(lat, 0.5), len(lat)),
		us(spHandler),
		us(spReadHandler),
		single("serve.transport_us", "us", clientP50-st[handler].p50, len(lat)),
		us(spDecode),
		us(spEncode),
		single("serve.latency_p99_ms", "ms", p99, len(lat)),
		single("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses)),
		single("serve.shed_total", "count", float64(c.shed-c0.shed), loaded.attempted),
		single("serve.errors_total", "count", float64(c.errors-c0.errors), loaded.attempted),
		us(spParse),
		us(spFromHTML),
		us(spFingerprint),
		us(spContentKey),
		us(spAnalyze),
		single("webpage.analyze_allocs", "count", median(t.analyzeAllocs), len(t.analyzeAllocs)),
		us(spTerms),
		us(spFeatures),
		us(spScore),
		us(spIdentify),
		us(spKeyterms),
		single("target.steps_mean", "count", mean(steps), len(steps)),
		single("target.run_share", "ratio", runShare, len(t.ref)),
		us(spQuery),
		single("search.query_alloc_kb", "KB", median(t.queryAllocKB), len(t.queryAllocKB)),
		us(spAnalyzeCtx),
		timing("core.timings.analyze_us", tAnalyze),
		timing("core.timings.features_us", tFeatures),
		timing("core.timings.score_us", tScore),
		targetTiming,
		us(spFeedProcess),
		us(spDoCold),
		us(spDoWarm),
		single("coalesce.items_per_batch", "count", ratio(float64(c.batchedItems-c0.batchedItems), float64(c.batches-c0.batches)), int(c.batches-c0.batches)),
		single("coalesce.memo_hit_ratio.analysis", "ratio", memo(0), loaded.ops),
		single("coalesce.memo_hit_ratio.features", "ratio", memo(1), loaded.ops),
		single("coalesce.memo_hit_ratio.score", "ratio", memo(2), loaded.ops),
		single("coalesce.memo_hit_ratio.target", "ratio", memo(3), loaded.ops),
		single("coalesce.retained_kb_per_page", "KB", ratio(float64(loaded.retained)/1024, float64(loaded.unique)), loaded.unique),
		us(spVisit),
		us(spEnqueue),
		single("feed.processed_total", "count", float64(c.feedProcessed), loaded.ops),
		single("feed.failed_total", "count", float64(c.feedFailed), loaded.ops),
		single("feed.retries_total", "count", float64(c.feedRetries), loaded.ops),
		single("feed.rate_deferred_total", "count", float64(c.feedRateDeferred), loaded.ops),
		single("feed.queue_depth_max", "count", float64(loaded.queueDepthMax), loaded.ops),
		us(spAppend),
		us(spGet),
		us(spScanPage),
		single("runtime.cpu_ms_per_req", "ms", ratio(float64(loaded.cpu.Nanoseconds())/1e6, ops), loaded.ops),
		single("runtime.gc_cycles_per_kreq", "count", ratio(float64(loaded.gcCycles)*1000, ops), loaded.ops),
		single("runtime.page_faults_per_kreq", "count", ratio(float64(loaded.faults)*1000, ops), loaded.ops),
		single("ledger.residual_share", "ratio", ratio(rootP50-sum, rootP50), roots),
		single("ledger.reconcile_share", "ratio", ratio(sum, observed), roots),
	}
}
