package serve

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/feed"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
)

// feedServer assembles a server with the full ingestion pipeline wired
// in: a store in dir and a scheduler crawling the synthetic world plus
// any extra sites.
func feedServer(t *testing.T, dir string, extra []crawl.Fetcher, mutate func(*feed.Config)) (*Server, *feed.Scheduler, store.Backend) {
	t.Helper()
	c, d := fixtures(t)
	st, err := store.Open(store.Config{Path: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	fcfg := feed.Config{
		Fetcher:  crawl.Compose(append(extra, c.World)...),
		Pipeline: &core.Pipeline{Detector: d, Identifier: target.New(c.Engine)},
		Store:    st,
		Workers:  2,
	}
	if mutate != nil {
		mutate(&fcfg)
	}
	sched, err := feed.New(fcfg)
	if err != nil {
		t.Fatalf("feed.New: %v", err)
	}
	t.Cleanup(func() { sched.Drain(time.Now().Add(10 * time.Second)) })
	s, err := New(Config{
		Detector:   d,
		Identifier: target.New(c.Engine),
		Feed:       sched,
		Store:      st,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, sched, st
}

// TestFeedEndToEnd is the PR's acceptance path: a synthetic-world
// phishing URL enters via POST /v1/feed, its verdict appears in
// GET /v1/verdicts, and the verdict survives a store restart.
func TestFeedEndToEnd(t *testing.T) {
	c, _ := fixtures(t)
	rng := rand.New(rand.NewSource(9))
	site := c.World.NewPhishSite(rng, c.World.RandomPhishOptions(rng))
	dir := t.TempDir()
	s, sched, st := feedServer(t, dir, []crawl.Fetcher{site}, nil)

	var fr FeedResponse
	code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: []string{site.StartURL}}, &fr)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/feed status = %d", code)
	}
	if fr.Accepted != 1 || !fr.Results[0].Accepted {
		t.Fatalf("feed response = %+v, want 1 accepted", fr)
	}
	if !sched.Wait(time.Now().Add(30 * time.Second)) {
		t.Fatal("ingestion did not finish")
	}

	query := "/v1/verdicts?url=" + site.StartURL
	var vr VerdictsResponse
	if code := call(t, s, http.MethodGet, query, nil, &vr); code != http.StatusOK {
		t.Fatalf("GET /v1/verdicts status = %d", code)
	}
	if vr.Count != 1 || len(vr.Records) != 1 {
		t.Fatalf("verdicts = %+v, want exactly one record", vr)
	}
	rec := vr.Records[0]
	if rec.URL != site.StartURL || rec.Error != "" || rec.Fingerprint == "" {
		t.Fatalf("record = %+v", rec)
	}

	// When identification named a target, the record is also reachable
	// through the target index.
	if rec.Target != "" {
		var byTarget VerdictsResponse
		call(t, s, http.MethodGet, "/v1/verdicts?target="+rec.Target, nil, &byTarget)
		found := false
		for _, r := range byTarget.Records {
			if r.Seq == rec.Seq {
				found = true
			}
		}
		if !found {
			t.Errorf("record not found via target=%s", rec.Target)
		}
	}

	// The ingestion counters surface at /metrics.
	m := s.Metrics()
	if m.Feed == nil || m.Feed.Processed != 1 || m.Feed.Accepted != 1 {
		t.Errorf("feed metrics = %+v, want processed=1", m.Feed)
	}
	if m.Store == nil || m.Store.Records != 1 {
		t.Errorf("store metrics = %+v, want 1 record", m.Store)
	}

	// Restart the store from disk: a server over the reopened directory
	// answers with the same verdict.
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	reopened, err := store.Open(store.Config{Path: dir})
	if err != nil {
		t.Fatalf("reopening the store: %v", err)
	}
	t.Cleanup(func() { _ = reopened.Close() })
	s2 := newServer(t, func(cfg *Config) { cfg.Store = reopened })
	var vr2 VerdictsResponse
	if code := call(t, s2, http.MethodGet, query, nil, &vr2); code != http.StatusOK {
		t.Fatalf("GET after restart status = %d", code)
	}
	if vr2.Count != 1 || vr2.Records[0].Seq != rec.Seq ||
		vr2.Records[0].Outcome.Score != rec.Outcome.Score {
		t.Fatalf("verdict changed across restart: %+v vs %+v", vr2.Records, rec)
	}
}

// heldFetcher blocks every fetch of url until release is closed,
// signalling entered when the first one starts; it finds nothing else.
type heldFetcher struct {
	url              string
	entered, release chan struct{}
	once             sync.Once
}

func (f *heldFetcher) Fetch(url string) (*webgen.Page, bool) {
	if url == f.url {
		f.once.Do(func() { close(f.entered) })
		<-f.release
	}
	return nil, false
}

func TestFeedEndpointRejections(t *testing.T) {
	// The one worker is held inside a fetch for the whole call, so the
	// depth-1 queue fills and stays full: every result is determined.
	held := &heldFetcher{url: "http://held.test/", entered: make(chan struct{}), release: make(chan struct{})}
	s, sched, _ := feedServer(t, t.TempDir(), []crawl.Fetcher{held}, func(cfg *feed.Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
	})
	t.Cleanup(func() { close(held.release) }) // before feedServer's Drain
	if err := sched.Enqueue(held.url); err != nil {
		t.Fatal(err)
	}
	<-held.entered
	urls := []string{
		"not a url at all ://", // invalid: no host
		"http://parked.test/a", // accepted
		"http://parked.test/a", // duplicate (in flight)
		"http://parked.test/b", // queue full (depth 1)
		"http://parked.test/c", // queue full
	}
	var fr FeedResponse
	if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: urls}, &fr); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if fr.Results[0].Accepted || fr.Results[0].Reason != "invalid_url" {
		t.Errorf("result[0] = %+v, want invalid_url", fr.Results[0])
	}
	if !fr.Results[1].Accepted {
		t.Errorf("result[1] = %+v, want accepted", fr.Results[1])
	}
	if fr.Results[2].Accepted || fr.Results[2].Reason != "duplicate" {
		t.Errorf("result[2] = %+v, want duplicate", fr.Results[2])
	}
	for i := 3; i < len(urls); i++ {
		if fr.Results[i].Accepted || fr.Results[i].Reason != "queue_full" {
			t.Errorf("result[%d] = %+v, want queue_full", i, fr.Results[i])
		}
	}
	if fr.Accepted != 1 || fr.Rejected != 4 || fr.QueueDepth != 1 {
		t.Errorf("accepted %d, rejected %d, queue depth %d; want 1, 4, 1", fr.Accepted, fr.Rejected, fr.QueueDepth)
	}

	// Malformed bodies.
	var er errorResponse
	if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{}, &er); code != http.StatusBadRequest {
		t.Errorf("empty urls: status = %d, want 400", code)
	}
}

func TestFeedAndVerdictsUnconfigured(t *testing.T) {
	s := newServer(t, nil) // no feed, no store
	var er errorResponse
	if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: []string{"http://x.test/"}}, &er); code != http.StatusServiceUnavailable {
		t.Errorf("feed unconfigured: status = %d, want 503", code)
	}
	if code := call(t, s, http.MethodGet, "/v1/verdicts", nil, &er); code != http.StatusServiceUnavailable {
		t.Errorf("verdicts unconfigured: status = %d, want 503", code)
	}
	var h HealthResponse
	call(t, s, http.MethodGet, "/healthz", nil, &h)
	if h.FeedEnabled || h.StoreEnabled {
		t.Errorf("healthz advertises feed/store on a server without them: %+v", h)
	}
}

func TestVerdictsQueryValidation(t *testing.T) {
	s, _, st := feedServer(t, t.TempDir(), nil, nil)
	for _, bad := range []string{
		"/v1/verdicts?since=yesterday",
		"/v1/verdicts?phish_only=perhaps",
		"/v1/verdicts?limit=0",
		"/v1/verdicts?limit=1000000",
		"/v1/verdicts?limit=ten",
	} {
		var er errorResponse
		if code := call(t, s, http.MethodGet, bad, nil, &er); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, code)
		}
	}
	// since filters on the wire.
	old := store.Record{URL: "http://old.test/", LandingURL: "http://old.test/", Fingerprint: "a",
		ScoredAt: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
	recent := store.Record{URL: "http://new.test/", LandingURL: "http://new.test/", Fingerprint: "b",
		ScoredAt: time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)}
	if err := st.Append(context.Background(), old); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(context.Background(), recent); err != nil {
		t.Fatal(err)
	}
	var vr VerdictsResponse
	call(t, s, http.MethodGet, "/v1/verdicts?since=2025-01-01T00:00:00Z", nil, &vr)
	if vr.Count != 1 || vr.Records[0].URL != "http://new.test/" {
		t.Errorf("since filter returned %+v, want only the recent record", vr)
	}
}

// TestErrorResponsesExcludedFromLatency locks in the instrumentation
// contract across the whole surface, including the feed endpoints:
// cheap rejections must not drag the scoring percentiles toward zero.
func TestErrorResponsesExcludedFromLatency(t *testing.T) {
	s, _, _ := feedServer(t, t.TempDir(), nil, nil)
	bad := []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/score", PageRequest{}},        // 400
		{http.MethodPost, "/v1/score/batch", BatchRequest{}}, // 400
		{http.MethodPost, "/v1/feed", FeedRequest{}},         // 400
		{http.MethodGet, "/v1/verdicts?since=nope", nil},     // 400
		{http.MethodGet, "/v1/feed", nil},                    // 405
		{http.MethodPost, "/v1/verdicts", FeedRequest{}},     // 405
	}
	for _, r := range bad {
		if code := call(t, s, r.method, r.path, r.body, nil); code < 400 {
			t.Fatalf("%s %s: status = %d, want an error", r.method, r.path, code)
		}
	}
	if all, _ := s.latency(); all.N != 0 {
		t.Fatalf("latency observations after only-errors = %d, want 0", all.N)
	}
	if m := s.Metrics(); m.Errors != int64(len(bad)) {
		t.Errorf("errors = %d, want %d", m.Errors, len(bad))
	}
	// Successful requests on the new endpoints DO observe.
	var vr VerdictsResponse
	if code := call(t, s, http.MethodGet, "/v1/verdicts", nil, &vr); code != http.StatusOK {
		t.Fatalf("verdicts: status = %d", code)
	}
	var fr FeedResponse
	if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: []string{"http://ok.test/"}}, &fr); code != http.StatusOK {
		t.Fatalf("feed: status = %d", code)
	}
	if all, _ := s.latency(); all.N != 2 {
		t.Errorf("latency observations after two successes = %d, want 2", all.N)
	}
}

// TestCacheEvictionsExported covers the /metrics eviction counter: an
// undersized memo under distinct-page traffic must report evictions in
// the table whose entries are the cached verdicts.
func TestCacheEvictionsExported(t *testing.T) {
	s := newServer(t, func(cfg *Config) { cfg.Coalescer = coalesce.New(coalesce.Config{MemoEntries: 16}) }) // 1 entry/shard
	scoreDistinctPages(t, s, 64)
	m := s.Metrics().Coalesce.Score
	if m.Evictions == 0 {
		t.Errorf("score-memo evictions = 0, want > 0 for 64 pages in a 16-entry table")
	}
	if m.Entries+int(m.Evictions) != 64 {
		t.Errorf("entries %d + evictions %d != 64 pages", m.Entries, m.Evictions)
	}
}
