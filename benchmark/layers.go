package main

// layers.go is the only file of the benchmark that calls into
// knowphish/internal/...: booting the system, generating inputs,
// decoding what the program answers, and the traced calls into each
// layer's public functions. A refactor that renames a layer entry point
// repairs the benchmark here; workload and metric definitions live in
// the other files and never change with it.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/features"
	"knowphish/internal/feed"
	"knowphish/internal/htmlx"
	"knowphish/internal/ml"
	"knowphish/internal/serve"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/terms"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// defaultScale is kpload -self's corpus downscale; it fixes the size of
// the search index target identification queries, so it is part of the
// benchmark's definition, not a knob.
const defaultScale = 20

// sut is the system under test: the world, detector and identifier
// `kpload -self` boots, fixed for every run so that only -seed (the
// pages) varies.
type sut struct {
	world *webgen.World
	pipe  *core.Pipeline
	feats features.Extractor
}

// bootSUT builds the corpus and trains the detector exactly as
// cmd/kpload's bootSelf does with its default seed.
func bootSUT(scale int) (*sut, error) {
	corpus, err := dataset.Build(dataset.Config{
		Seed:              42,
		Scale:             scale,
		World:             webgen.Config{Seed: 43},
		SkipLanguageTests: true,
	})
	if err != nil {
		return nil, fmt.Errorf("building corpus: %w", err)
	}
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	det, err := core.Train(snaps, labels, core.TrainConfig{
		GBM:  ml.GBMConfig{Trees: 100, MaxDepth: 4, Subsample: 0.8, MinLeaf: 5, Seed: 44},
		Rank: corpus.World.Ranking(),
	})
	if err != nil {
		return nil, fmt.Errorf("training detector: %w", err)
	}
	return &sut{
		world: corpus.World,
		pipe:  &core.Pipeline{Detector: det, Identifier: target.New(corpus.Engine)},
		feats: features.Extractor{Rank: corpus.World.Ranking()},
	}, nil
}

// ---------------------------------------------------------------------
// Inputs.

// page is one generated input: a site of the synthetic web resolved to
// the bytes a client submits.
type page struct {
	start string            // starting URL: what feed_ingest submits
	body  []byte            // pre-marshalled POST /v2/score request
	hash  [sha256.Size]byte // content identity of body
	phish bool              // webgen ground truth
	site  *webgen.Site      // serves start's redirect chain and landing page
}

func (s *sut) phishSite(rng *rand.Rand) *webgen.Site {
	return s.world.NewPhishSite(rng, s.world.RandomPhishOptions(rng))
}

// legitSite round-robins the six evaluation languages on i.
func (s *sut) legitSite(rng *rand.Rand, i int) *webgen.Site {
	return s.world.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.Languages[i%len(webgen.Languages)]})
}

// fetcher resolves a site's own pages first, then the world's
// persistent brand pages its redirects and visits may lead to.
func (s *sut) fetcher(site *webgen.Site) crawl.Fetcher { return crawl.Compose(site, s.world) }

// newPage follows the site's redirects as a browser would and marshals
// landing HTML, URLs and chain into the /v2/score request. It reports
// false for a site that does not resolve.
func (s *sut) newPage(site *webgen.Site) (page, bool) {
	f := s.fetcher(site)
	chain := []string{site.StartURL}
	cur := site.StartURL
	var html string
	for {
		p, ok := f.Fetch(cur)
		if !ok || len(chain) > 10 {
			return page{}, false
		}
		if p.RedirectTo == "" {
			html = p.HTML
			break
		}
		cur = p.RedirectTo
		chain = append(chain, cur)
	}
	if html == "" {
		return page{}, false
	}
	body, err := json.Marshal(serve.V2ScoreRequest{PageRequest: serve.PageRequest{
		HTML:             html,
		StartingURL:      site.StartURL,
		LandingURL:       cur,
		RedirectionChain: chain,
	}})
	if err != nil {
		return page{}, false
	}
	return page{start: site.StartURL, body: body, hash: sha256.Sum256(body), phish: site.IsPhish, site: site}, true
}

// siteSet serves the pages of many generated sites by URL: the
// benchmark-side crawl source of feed_ingest.
type siteSet map[string]*webgen.Page

func (m siteSet) Fetch(url string) (*webgen.Page, bool) {
	p, ok := m[url]
	return p, ok
}

// add merges the site's pages, refusing a site that would shadow a URL
// an earlier site already serves.
func (m siteSet) add(site *webgen.Site) bool {
	for u := range site.Pages {
		if _, dup := m[u]; dup {
			return false
		}
	}
	for u, p := range site.Pages {
		m[u] = p
	}
	return true
}

// ---------------------------------------------------------------------
// What the program answers.

// verdict is the part of a /v2/score response the benchmark checks.
type verdict struct {
	score     float64
	label     string
	topTarget string
	detPhish  bool
	targetRun bool
	steps     int
	cached    bool
	// recomputed is false when any pipeline stage was served from memo.
	recomputed bool
	// analyze, features, score and target are the program's own stage
	// clocks in ns (zero on a cached verdict).
	analyzeNS, featuresNS, scoreNS, targetNS int64
}

func verdictOf(v *core.Verdict, cached bool) verdict {
	out := verdict{
		score:      v.Score,
		label:      v.Label,
		detPhish:   v.DetectorPhish,
		targetRun:  v.TargetRun,
		steps:      v.Target.StepsUsed,
		cached:     cached,
		recomputed: !cached,
		analyzeNS:  v.Timings.AnalyzeNS,
		featuresNS: v.Timings.FeaturesNS,
		scoreNS:    v.Timings.ScoreNS,
		targetNS:   v.Timings.TargetNS,
	}
	if len(v.Target.Candidates) > 0 {
		out.topTarget = v.Target.Candidates[0].RDN
	}
	if m := v.Memo; m != nil {
		for _, prov := range []string{m.Analysis, m.Features, m.Score, m.Target} {
			if prov == core.ProvMemo {
				out.recomputed = false
			}
		}
	}
	return out
}

// decodeVerdict parses a /v2/score response body.
func decodeVerdict(b []byte) (verdict, error) {
	var resp serve.V2ScoreResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return verdict{}, err
	}
	if resp.Label == "" {
		return verdict{}, errors.New("response carries no label")
	}
	return verdictOf(&resp.Verdict, resp.Cached), nil
}

// snapshot rebuilds the snapshot the server derives from a request body.
func snapshot(body []byte) (*webpage.Snapshot, error) {
	var req serve.V2ScoreRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	snap := webpage.FromHTML(req.StartingURL, req.LandingURL, req.RedirectionChain, req.HTML)
	return &snap, nil
}

// reference scores the page by calling the pipeline directly: the
// oracle every 32nd response is compared with.
func (s *sut) reference(p page) (verdict, error) {
	snap, err := snapshot(p.body)
	if err != nil {
		return verdict{}, err
	}
	v, err := s.pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(snap))
	if err != nil {
		return verdict{}, err
	}
	return verdictOf(&v, false), nil
}

// decodeFeedAck parses a /v1/feed response.
func decodeFeedAck(b []byte) (accepted, rejected, depth int, err error) {
	var resp serve.FeedResponse
	if err = json.Unmarshal(b, &resp); err != nil {
		return 0, 0, 0, err
	}
	return resp.Accepted, resp.Rejected, resp.QueueDepth, nil
}

func encodeFeedBatch(urls []string) []byte {
	b, _ := json.Marshal(serve.FeedRequest{URLs: urls}) // strings always marshal
	return b
}

// feedRecord is the part of a stored verdict the benchmark reads back.
type feedRecord struct {
	url      string
	scoredAt time.Time
	failure  string
}

// decodeVerdictsPage parses a /v2/verdicts page and its resume cursor.
func decodeVerdictsPage(b []byte) (recs []feedRecord, next string, err error) {
	var resp serve.VerdictsPageResponse
	if err = json.Unmarshal(b, &resp); err != nil {
		return nil, "", err
	}
	recs = make([]feedRecord, len(resp.Records))
	for i, r := range resp.Records {
		recs[i] = feedRecord{url: r.URL, scoredAt: r.ScoredAt, failure: r.Error}
	}
	return recs, resp.NextCursor, nil
}

// ---------------------------------------------------------------------
// One served instance per round.

// instance is a freshly built server (empty caches) on a loopback
// listener in this process. With a feed it also owns the scheduler, the
// shared coalescer and an on-disk segmented store.
type instance struct {
	url   string
	srv   *serve.Server
	hs    *http.Server
	done  chan struct{}
	sched *feed.Scheduler
	st    store.Backend
	dir   string
}

// feedSpec asks newInstance for the ingestion half, wired as
// cmd/kpserve wires it.
type feedSpec struct {
	fetcher siteSet
	queue   int    // QueueDepth: the round size, so backpressure never rejects
	dir     string // parent of the store's temp dir
}

func (s *sut) newInstance(fs *feedSpec) (*instance, error) {
	in := &instance{done: make(chan struct{})}
	cfg := serve.Config{Detector: s.pipe.Detector, Identifier: s.pipe.Identifier}
	if fs != nil {
		if err := os.MkdirAll(fs.dir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(fs.dir, "store-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
		if in.st, err = store.Open(store.Config{Path: dir}); err != nil {
			in.close()
			return nil, err
		}
		coal := coalesce.New(coalesce.Config{})
		in.sched, err = feed.New(feed.Config{
			Fetcher:    crawl.Compose(fs.fetcher, s.world),
			Pipeline:   s.pipe,
			Store:      in.st,
			QueueDepth: fs.queue,
			DomainRate: -1,
			Score: func(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest) (core.Verdict, error) {
				return coal.Do(ctx, pipe, req, coalesce.CacheDefault, nil)
			},
		})
		if err != nil {
			in.close()
			return nil, err
		}
		cfg.Coalescer, cfg.Feed, cfg.Store = coal, in.sched, in.st
	}
	var err error
	if in.srv, err = serve.New(cfg); err != nil {
		in.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.url = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: in.srv}
	go func() {
		defer close(in.done)
		_ = in.hs.Serve(ln) // always ErrServerClosed after close()
	}()
	return in, nil
}

// persisted is how many URLs have a stored verdict so far.
func (in *instance) persisted() int { return int(in.sched.Stats().Processed) }

// waitPersisted blocks until every accepted URL has a persisted verdict.
func (in *instance) waitPersisted(deadline time.Time) bool { return in.sched.Wait(deadline) }

// close stops the listener, drains the feed, closes the store and
// removes its directory. It waits for every goroutine it started.
func (in *instance) close() {
	if in.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = in.hs.Shutdown(ctx) // best effort: the round is already measured
		cancel()
		<-in.done
	}
	if in.sched != nil {
		in.sched.Drain(time.Now().Add(5 * time.Second))
	}
	if in.st != nil {
		_ = in.st.Close() // the directory is removed next
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir)
	}
}

// counters are the program's own numbers the benchmark reads back.
type counters struct {
	cacheHits, cacheMisses int64
	shed, errors           int64
	batches, batchedItems  uint64
	memoHits, memoMisses   [4]uint64 // analysis, features, score, target
	feedProcessed          int64
	feedFailed             int64
	feedRetries            int64
	feedRateDeferred       int64
	storeRecords           int
	storeAppends           int64
}

func (in *instance) counters() counters {
	m := in.srv.Metrics()
	c := counters{
		cacheHits:   m.CacheHits,
		cacheMisses: m.CacheMisses,
		shed:        m.Shed.Total,
		errors:      m.Errors,
	}
	if cs := m.Coalesce; cs != nil {
		c.batches, c.batchedItems = cs.Batches, cs.BatchedItems
		for i, t := range []coalesce.TableStats{cs.Analysis, cs.Features, cs.Score, cs.Target} {
			c.memoHits[i], c.memoMisses[i] = t.Hits, t.Misses
		}
	}
	if f := m.Feed; f != nil {
		c.feedProcessed, c.feedFailed = f.Processed, f.Failed
		c.feedRetries, c.feedRateDeferred = f.Retries, f.RateDeferred
	}
	if st := m.Store; st != nil {
		c.storeRecords, c.storeAppends = st.Records, st.Appends
	}
	return c
}

// ---------------------------------------------------------------------
// The traced replay. Nothing inside the program is instrumented, so a
// span is the benchmark's clock around a call into a layer's public
// function, and a child is timed by calling it again on the same input.

// Span names; the per-layer metric of a span is its name + "_us".
const (
	spHandler     = "serve.handler"
	spDecode      = "serve.decode"
	spEncode      = "serve.encode"
	spReadHandler = "serve.read_handler"
	spParse       = "htmlx.parse"
	spFromHTML    = "webpage.from_html"
	spFingerprint = "webpage.fingerprint"
	spContentKey  = "webpage.content_key"
	spAnalyze     = "webpage.analyze"
	spTerms       = "terms.extract"
	spFeatures    = "features.extract"
	spScore       = "ml.score"
	spIdentify    = "target.identify"
	spKeyterms    = "target.keyterms"
	spQuery       = "search.query"
	spAnalyzeCtx  = "core.analyze_ctx"
	spFeedProcess = "feed.process"
	spVisit       = "crawl.visit"
	spDoCold      = "coalesce.do_cold"
	spDoWarm      = "coalesce.do_warm"
	spEnqueue     = "feed.enqueue"
	spAppend      = "store.append"
	spGet         = "store.get"
	spScanPage    = "store.scan_page"
)

// tracer replays inputs on one goroutine through every layer.
type tracer struct {
	s   *sut
	rec *recorder
	in  *instance // serves the traced /v2/score calls
	// feed is feed-wired: the scheduler, its own coalescer (a page the
	// handler above has scored is still unseen here) and the store the
	// /v2/verdicts reads page through.
	feed *instance
	coal *coalesce.Coalescer // memo tables of the Coalescer.Do calls timed on their own
	// ref collects what the pipeline itself reported per request.
	ref []verdict
	// analyzeAllocs and queryAllocKB sample heap cost on every 8th request.
	analyzeAllocs, queryAllocKB []float64
}

func (s *sut) newTracer(pages []page, dir string) (*tracer, error) {
	fetch := siteSet{}
	for _, p := range pages {
		fetch.add(p.site) // a repeated site is already served
	}
	in, err := s.newInstance(nil)
	if err != nil {
		return nil, err
	}
	feed, err := s.newInstance(&feedSpec{fetcher: fetch, queue: len(pages), dir: dir})
	if err != nil {
		in.close()
		return nil, err
	}
	return &tracer{s: s, rec: newRecorder(), in: in, feed: feed, coal: coalesce.New(coalesce.Config{})}, nil
}

// serveScore runs the real /v2/score handler without a socket, as the
// span named name when one is given; request and recorder are built
// outside the span.
func (t *tracer) serveScore(req int, name string, body []byte) (root int, w *httptest.ResponseRecorder) {
	hreq := httptest.NewRequest(http.MethodPost, "/v2/score", bytes.NewReader(body))
	w = httptest.NewRecorder()
	if name != "" {
		root = t.rec.begin(req, 0, name)
		defer t.rec.end(root)
	}
	t.in.srv.ServeHTTP(w, hreq)
	return root, w
}

// fill submits a page untimed, to warm the instance's caches.
func (t *tracer) fill(p page) { t.serveScore(0, "", p.body) }

// request traces one input. It returns an error when the program's
// answer cannot be used, which the caller counts as a failure.
func (t *tracer) request(req int, p page) error {
	r, ctx := t.rec, context.Background()

	root, w := t.serveScore(req, spHandler, p.body)
	if w.Code != http.StatusOK {
		return fmt.Errorf("traced /v2/score: status %d", w.Code)
	}
	var resp serve.V2ScoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("traced /v2/score: %w", err)
	}

	// The handler's stages, called again on the same input. A stage the
	// program's answer says this request did not run (a verdict-cache
	// hit skips the pipeline; only detector positives are identified)
	// is still timed, as a probe with no parent, so that every layer
	// has a cost on every workload and only what ran is charged to the
	// handler.
	pipeline, identify := 0, 0
	if !resp.Cached {
		pipeline = root
		if resp.TargetRun {
			identify = root
		}
	}
	var sreq serve.V2ScoreRequest
	id := r.begin(req, root, spDecode)
	err := json.Unmarshal(p.body, &sreq)
	r.end(id)
	if err != nil {
		return err
	}
	id = r.begin(req, root, spFromHTML)
	snap := webpage.FromHTML(sreq.StartingURL, sreq.LandingURL, sreq.RedirectionChain, sreq.HTML)
	r.end(id)
	c := r.begin(req, id, spParse)
	doc := htmlx.Parse(sreq.HTML)
	r.end(c)
	id = r.begin(req, root, spFingerprint)
	webpage.Fingerprint(&snap)
	r.end(id)
	id = r.begin(req, pipeline, spContentKey)
	webpage.ContentKey(&snap)
	r.end(id)
	id = r.begin(req, pipeline, spAnalyze)
	a := webpage.Analyze(&snap)
	r.end(id)
	c = r.begin(req, id, spTerms)
	terms.Extract(doc.Text)
	r.end(c)
	id = r.begin(req, pipeline, spFeatures)
	vec := t.s.feats.Extract(a)
	r.end(id)
	id = r.begin(req, pipeline, spScore)
	t.s.pipe.Detector.ScoreVector(vec)
	r.end(id)
	ident := t.s.pipe.Identifier
	id = r.begin(req, identify, spIdentify)
	res := ident.Identify(a)
	r.end(id)
	c = r.begin(req, id, spKeyterms)
	target.ExtractKeyterms(a, ident.K)
	r.end(c)
	queries := identifyQueries(res, a)
	for _, q := range queries {
		c = r.begin(req, id, spQuery)
		ident.Engine.Query(q, ident.Results)
		r.end(c)
	}
	id = r.begin(req, root, spEncode)
	_, err = json.Marshal(resp)
	r.end(id)
	if err != nil {
		return err
	}
	if req%8 == 0 {
		mallocs, _ := allocsOf(func() { webpage.Analyze(&snap) })
		t.analyzeAllocs = append(t.analyzeAllocs, float64(mallocs))
		_, bytes := allocsOf(func() {
			for _, q := range queries {
				ident.Engine.Query(q, ident.Results)
			}
		})
		t.queryAllocKB = append(t.queryAllocKB, float64(bytes)/1024/float64(len(queries)))
	}

	// The whole pipeline in one call, and its own stage clocks.
	id = r.begin(req, 0, spAnalyzeCtx)
	v, err := t.s.pipe.AnalyzeCtx(ctx, core.NewScoreRequest(&snap))
	r.end(id)
	if err != nil {
		return err
	}
	t.ref = append(t.ref, verdictOf(&v, false))

	// The feed's per-URL path through the real scheduler, one URL at a
	// time: from Enqueue to the verdict persisted. Its stages are then
	// called again as its children.
	proc := r.begin(req, 0, spFeedProcess)
	id = r.begin(req, proc, spEnqueue)
	err = t.feed.sched.Enqueue(p.start)
	r.end(id)
	persisted := err == nil && t.feed.waitPersisted(time.Now().Add(time.Minute))
	r.end(proc)
	if !persisted {
		return fmt.Errorf("traced feed of %s: not persisted: %v", p.start, err)
	}
	id = r.begin(req, 0, spGet)
	rec, found, err := t.feed.st.Get(ctx, p.start)
	r.end(id)
	if err != nil || !found {
		return fmt.Errorf("traced store get of %s: found=%v err=%v", p.start, found, err)
	}
	id = r.begin(req, proc, spVisit)
	crawled, err := crawl.Visit(t.s.fetcher(p.site), p.start)
	r.end(id)
	if err != nil {
		return fmt.Errorf("traced crawl: %w", err)
	}
	creq := core.NewScoreRequest(crawled)
	id = r.begin(req, proc, spDoCold)
	_, err = t.coal.Do(ctx, t.s.pipe, creq, coalesce.CacheRefresh, nil)
	r.end(id)
	if err != nil {
		return err
	}
	id = r.begin(req, proc, spFingerprint)
	webpage.Fingerprint(crawled)
	r.end(id)
	id = r.begin(req, proc, spAppend)
	err = t.feed.st.Append(ctx, rec) // the record the scheduler stored, once more
	r.end(id)
	if err != nil {
		return fmt.Errorf("traced append: %w", err)
	}

	id = r.begin(req, 0, spDoWarm)
	_, err = t.coal.Do(ctx, t.s.pipe, creq, coalesce.CacheDefault, nil)
	r.end(id)
	if err != nil {
		return err
	}
	rreq := httptest.NewRequest(http.MethodGet, "/v2/verdicts?limit=100", nil)
	rw := httptest.NewRecorder()
	read := r.begin(req, 0, spReadHandler)
	t.feed.srv.ServeHTTP(rw, rreq)
	r.end(read)
	if rw.Code != http.StatusOK {
		return fmt.Errorf("traced /v2/verdicts: status %d", rw.Code)
	}
	id = r.begin(req, read, spScanPage)
	_, err = t.feed.st.Scan(ctx, store.Query{Limit: serve.DefaultVerdictsLimit})
	r.end(id)
	return err
}

// identifyQueries rebuilds the index queries Identify issued from what
// its result exposes: the keyterms, the step it stopped at (step 1 ran
// only the first query) and the terms OCR recovered.
// TestRebuiltQueriesAreIdentifys holds them to the hits Identify ranked.
func identifyQueries(res target.Result, a *webpage.Analysis) [][]string {
	q1 := res.Keyterms.Boosted
	if len(q1) == 0 {
		q1 = res.Keyterms.Prominent
	}
	queries := [][]string{q1}
	if res.StepsUsed >= 2 {
		q2 := slices.Clone(res.Keyterms.Prominent)
		for _, t := range terms.Extract(a.Land.UnicodeRDN()) {
			if !slices.Contains(q2, t) {
				q2 = append(q2, t)
			}
		}
		queries = append(queries, q2)
	}
	if len(res.OCRProminent) > 0 {
		queries = append(queries, res.OCRProminent)
	}
	return queries
}

func (t *tracer) close() {
	t.in.close()
	t.feed.close()
}
