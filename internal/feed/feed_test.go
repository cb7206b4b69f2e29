package feed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/obs"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var (
	fixOnce sync.Once
	fixCorp *dataset.Corpus
	fixPipe *core.Pipeline
	fixErr  error
)

// fixtures trains one small pipeline shared by every test.
func fixtures(t *testing.T) (*dataset.Corpus, *core.Pipeline) {
	t.Helper()
	fixOnce.Do(func() {
		fixCorp, fixErr = dataset.Build(dataset.Config{
			Seed:              61,
			Scale:             100,
			World:             webgen.Config{Seed: 62, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if fixErr != nil {
			return
		}
		snaps := append(fixCorp.LegTrain.Snapshots(), fixCorp.PhishTrain.Snapshots()...)
		labels := append(fixCorp.LegTrain.Labels(), fixCorp.PhishTrain.Labels()...)
		var det *core.Detector
		det, fixErr = core.Train(snaps, labels, core.TrainConfig{
			Rank: fixCorp.World.Ranking(),
			GBM:  ml.GBMConfig{Trees: 50, MaxDepth: 4, Seed: 3},
		})
		if fixErr != nil {
			return
		}
		fixPipe = &core.Pipeline{Detector: det, Identifier: target.New(fixCorp.Engine)}
	})
	if fixErr != nil {
		t.Fatalf("fixtures: %v", fixErr)
	}
	return fixCorp, fixPipe
}

// openStore opens a verdict store (on a fresh directory when cfg.Path
// is unset) with auto-close.
func openStore(t *testing.T, cfg store.Config) store.Backend {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "verdicts")
	}
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// newStore is a fresh store; tests that reopen use openStore on a
// directory of their own.
func newStore(t *testing.T) store.Backend {
	return openStore(t, store.Config{})
}

// get reads the newest record for url.
func get(t *testing.T, st store.Backend, url string) (store.Record, bool) {
	t.Helper()
	rec, ok, err := st.Get(context.Background(), url)
	if err != nil {
		t.Fatalf("Get(%s): %v", url, err)
	}
	return rec, ok
}

// fetcherFunc adapts a function to crawl.Fetcher.
type fetcherFunc func(url string) (*webgen.Page, bool)

func (f fetcherFunc) Fetch(url string) (*webgen.Page, bool) { return f(url) }

// staticFetcher serves a fixed benign page for any URL — for tests that
// exercise scheduling, not scoring.
var staticFetcher = fetcherFunc(func(url string) (*webgen.Page, bool) {
	return &webgen.Page{URL: url, HTML: "<title>hello</title><body>gardening tips and recipes</body>"}, true
})

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func drain(t *testing.T, s *Scheduler) {
	t.Helper()
	if dropped := s.Drain(time.Now().Add(30 * time.Second)); dropped != 0 {
		t.Fatalf("drain dropped %d URLs", dropped)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	_, pipe := fixtures(t)
	if _, err := New(Config{Pipeline: pipe}); err == nil {
		t.Error("nil fetcher: want error")
	}
	if _, err := New(Config{Fetcher: fetcherFunc(func(string) (*webgen.Page, bool) { return nil, false })}); err == nil {
		t.Error("nil pipeline: want error")
	}
}

// TestFingerprintSameOnEveryScoringPath: the stored fingerprint is the
// page's one identity whether the drain took it from a memoized verdict
// or had to hash the snapshot itself.
func TestFingerprintSameOnEveryScoringPath(t *testing.T) {
	c, pipe := fixtures(t)
	site := c.World.NewPhishSite(newRand(1), c.World.RandomPhishOptions(newRand(2)))
	fetcher := crawl.Compose(site, c.World)
	snap, err := crawl.Visit(fetcher, site.StartURL)
	if err != nil {
		t.Fatal(err)
	}
	want := webpage.Fingerprint(snap)
	coal := coalesce.New(coalesce.Config{})
	for name, score := range map[string]func(context.Context, *core.Pipeline, core.ScoreRequest) (core.Verdict, error){
		"plain": nil,
		"memo": func(ctx context.Context, p *core.Pipeline, req core.ScoreRequest) (core.Verdict, error) {
			return coal.Do(ctx, p, req, coalesce.CacheDefault, nil)
		},
	} {
		st := newStore(t)
		s, err := New(Config{Fetcher: fetcher, Pipeline: pipe, Store: st, DomainRate: -1, Score: score})
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		if err := s.Enqueue(site.StartURL); err != nil {
			t.Fatalf("%s: Enqueue: %v", name, err)
		}
		drain(t, s)
		if rec, ok := get(t, st, site.StartURL); !ok || rec.Fingerprint != want {
			t.Errorf("%s: stored fingerprint %q, want %q", name, rec.Fingerprint, want)
		}
	}
}

func TestEndToEndIngestion(t *testing.T) {
	c, pipe := fixtures(t)
	dir := filepath.Join(t.TempDir(), "verdicts")
	st := openStore(t, store.Config{Path: dir})

	// A phishing site plus two brand front pages, all resolvable through
	// one composite fetcher.
	site := c.World.NewPhishSite(newRand(1), c.World.RandomPhishOptions(newRand(2)))
	fetcher := crawl.Compose(site, c.World)

	s, err := New(Config{
		Fetcher: fetcher, Pipeline: pipe, Store: st,
		Workers: 2, DomainRate: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	urls := []string{site.StartURL}
	for _, b := range c.World.Brands[:2] {
		urls = append(urls, c.World.BrandSiteURLs(b)[0])
	}
	for _, u := range urls {
		if err := s.Enqueue(u); err != nil {
			t.Fatalf("Enqueue(%s): %v", u, err)
		}
	}
	drain(t, s)

	stats := s.Stats()
	if stats.Processed != int64(len(urls)) || stats.Failed != 0 {
		t.Fatalf("stats = %+v, want %d processed, 0 failed", stats, len(urls))
	}
	if st.Len() != len(urls) {
		t.Fatalf("store has %d records, want %d", st.Len(), len(urls))
	}
	// The phishing URL's verdict is queryable by its starting URL.
	rec, ok := get(t, st, site.StartURL)
	if !ok {
		t.Fatalf("no record for %s", site.StartURL)
	}
	if rec.Error != "" {
		t.Fatalf("phish record has error: %s", rec.Error)
	}
	if rec.Fingerprint == "" || rec.LandingURL == "" {
		t.Errorf("record missing fingerprint/landing: %+v", rec)
	}

	// Verdicts survive a reopen from disk.
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st = openStore(t, store.Config{Path: dir})
	if again, ok := get(t, st, site.StartURL); !ok || again.Outcome.Score != rec.Outcome.Score {
		t.Errorf("record changed across reload: %+v vs %+v", again, rec)
	}
}

// TestDrainedFeedRetainsNoURL: once a URL's verdict is persisted, the
// scheduler holds nothing of its item, so the garbage collector can
// take it with its URL, domain and key.
func TestDrainedFeedRetainsNoURL(t *testing.T) {
	_, pipe := fixtures(t)
	st := newStore(t)
	s, err := New(Config{Fetcher: staticFetcher, Pipeline: pipe, Store: st, Workers: 1, DomainRate: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 4
	var items []weak.Pointer[item]
	for i := range n {
		if err := s.Enqueue(fmt.Sprintf("http://site%d.example/page", i)); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
		s.mu.Lock()
		if len(s.ready) > 0 {
			items = append(items, weak.Make(s.ready[len(s.ready)-1]))
		}
		s.mu.Unlock()
	}
	for deadline := time.Now().Add(30 * time.Second); st.Len() < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d verdicts persisted", st.Len(), n)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); s.Stats().Processed < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want %d processed", s.Stats(), n)
		}
	}
	if len(items) == 0 {
		t.Fatal("no item was seen queued")
	}
	runtime.GC()
	runtime.GC()
	for i, p := range items {
		if p.Value() != nil {
			t.Errorf("item %d is still reachable after its verdict was persisted", i)
		}
	}
	drain(t, s)
}

// TestTracedItemRecordsEveryStage: one traced URL carries the crawl
// span, the scoring stages the verdict measured, and the store append,
// in pipeline order and without overlap.
func TestTracedItemRecordsEveryStage(t *testing.T) {
	_, pipe := fixtures(t)
	st := newStore(t)
	tracer := obs.NewTracer(obs.Config{})
	s, err := New(Config{Fetcher: staticFetcher, Pipeline: pipe, Store: st, DomainRate: -1, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	const url = "http://garden.example/tips"
	if err := s.Enqueue(url); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	rec, ok := get(t, st, url)
	if !ok {
		t.Fatal("no record stored")
	}
	want := []string{"crawl", "analyze", "extract", "score", "store_append"}
	if rec.Outcome.TargetRun {
		want = []string{"crawl", "analyze", "extract", "score", "identify", "store_append"}
	}
	doc := tracer.Snapshot()
	if len(doc.Recent) != 1 {
		t.Fatalf("%d traces retained, want 1", len(doc.Recent))
	}
	spans := doc.Recent[0].Spans
	var got []string
	for i, sp := range spans {
		got = append(got, sp.Stage)
		if i > 0 && sp.OffsetUS < spans[i-1].OffsetUS+spans[i-1].DurUS {
			t.Errorf("span %s starts inside %s: %+v", sp.Stage, spans[i-1].Stage, spans)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("span stages = %v, want %v", got, want)
	}
}

// blockingFetcher blocks every Fetch until released.
type blockingFetcher struct {
	gate    chan struct{}
	inner   crawl.Fetcher
	started chan string
}

func (b *blockingFetcher) Fetch(url string) (*webgen.Page, bool) {
	if b.started != nil {
		select {
		case b.started <- url:
		default:
		}
	}
	<-b.gate
	return b.inner.Fetch(url)
}

func TestBackpressureRejectsWhenFull(t *testing.T) {
	c, pipe := fixtures(t)
	bf := &blockingFetcher{gate: make(chan struct{}), inner: c.World, started: make(chan string, 1)}
	s, err := New(Config{
		Fetcher: bf, Pipeline: pipe,
		Workers: 1, QueueDepth: 2, DomainRate: -1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	urls := []string{
		c.World.BrandSiteURLs(c.World.Brands[0])[0],
		c.World.BrandSiteURLs(c.World.Brands[1])[0],
		c.World.BrandSiteURLs(c.World.Brands[2])[0],
		c.World.BrandSiteURLs(c.World.Brands[3])[0],
	}
	// First URL occupies the single worker (blocked in Fetch)...
	if err := s.Enqueue(urls[0]); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	<-bf.started
	// ...two more fill the queue...
	if err := s.Enqueue(urls[1]); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if err := s.Enqueue(urls[2]); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	// ...and the fourth is rejected immediately, not blocked.
	start := time.Now()
	err = s.Enqueue(urls[3])
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Enqueue on full queue = %v, want ErrQueueFull", err)
	}
	if time.Since(start) > time.Second {
		t.Error("rejection blocked the producer")
	}
	if st := s.Stats(); st.RejectedFull != 1 || st.Depth != 2 {
		t.Errorf("stats = %+v, want rejected_full=1 depth=2", st)
	}
	close(bf.gate)
	drain(t, s)
}

func TestInFlightDedupe(t *testing.T) {
	c, pipe := fixtures(t)
	bf := &blockingFetcher{gate: make(chan struct{}), inner: c.World, started: make(chan string, 1)}
	s, err := New(Config{Fetcher: bf, Pipeline: pipe, Workers: 1, DomainRate: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	url := c.World.BrandSiteURLs(c.World.Brands[0])[0]
	if err := s.Enqueue(url); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	<-bf.started
	// The same URL is in flight (being fetched): duplicate.
	if err := s.Enqueue(url); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("in-flight resubmission = %v, want ErrDuplicate", err)
	}
	close(bf.gate)
	if !s.Wait(time.Now().Add(30 * time.Second)) {
		t.Fatal("Wait timed out")
	}
	// Scored and persisted: the URL may come around again.
	if err := s.Enqueue(url); err != nil {
		t.Fatalf("re-enqueue after scoring = %v, want accepted", err)
	}
	drain(t, s)
	if st := s.Stats(); st.RejectedDuplicate != 1 || st.Processed != 2 {
		t.Errorf("stats = %+v, want rejected_duplicate=1 processed=2", st)
	}
}

func TestInvalidAndClosedRejections(t *testing.T) {
	c, pipe := fixtures(t)
	s, err := New(Config{Fetcher: c.World, Pipeline: pipe, Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, bad := range []string{"", "   ", "/just/a/path"} {
		if err := s.Enqueue(bad); !errors.Is(err, ErrInvalidURL) {
			t.Errorf("Enqueue(%q) = %v, want ErrInvalidURL", bad, err)
		}
	}
	drain(t, s)
	if err := s.Enqueue("https://late.test/"); !errors.Is(err, ErrClosed) {
		t.Errorf("Enqueue after drain = %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.RejectedInvalid != 3 || st.RejectedClosed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPerDomainRateLimiting(t *testing.T) {
	_, pipe := fixtures(t)
	st := newStore(t)
	// 1 token/s, so a burst of 2: a campaign of 4 URLs on one domain
	// must be spread over ~2s while the other domain's URL flows
	// immediately.
	s, err := New(Config{
		Fetcher: staticFetcher, Pipeline: pipe, Store: st,
		Workers: 2, DomainRate: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	urls := []string{
		"http://campaign.test/a", "http://campaign.test/b",
		"http://campaign.test/c", "http://campaign.test/d",
		"http://other.test/",
	}
	for _, u := range urls {
		if err := s.Enqueue(u); err != nil {
			t.Fatalf("Enqueue(%s): %v", u, err)
		}
	}
	drain(t, s)
	stats := s.Stats()
	if stats.Processed != int64(len(urls)) {
		t.Fatalf("stats = %+v, want %d processed", stats, len(urls))
	}
	// 4 same-domain URLs against burst 2 must defer at least 2 times
	// (the exact count depends on worker scheduling).
	if stats.RateDeferred < 2 {
		t.Errorf("rate_deferred = %d, want >= 2", stats.RateDeferred)
	}
}

func TestRateLimitedDomainDoesNotStarveOthers(t *testing.T) {
	_, pipe := fixtures(t)
	// 0.5 tokens/s: one domain with an empty-after-one-token bucket and
	// a glacial refill; the other domain's URL must still be processed
	// promptly.
	s, err := New(Config{
		Fetcher: staticFetcher, Pipeline: pipe,
		Workers: 1, DomainRate: 0.5,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, u := range []string{"http://campaign.test/a", "http://campaign.test/b", "http://other.test/"} {
		if err := s.Enqueue(u); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	// Within well under the 2s token refill, two URLs (one per domain)
	// must have been processed; the campaign's second URL is deferred.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Processed >= 2 {
			if st.RateDeferred < 1 {
				t.Errorf("rate_deferred = %d, want >= 1", st.RateDeferred)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stuck: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	drain(t, s)
}

// takeTokens runs n rate checks for domain at time now, as the worker
// loop does, and returns how many were granted.
func takeTokens(s *Scheduler, domain string, now time.Time, n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	granted := 0
	for i := 0; i < n; i++ {
		if _, limited := s.takeTokenLocked(domain, now); !limited {
			granted++
		}
	}
	return granted
}

// TestDefaultBurstIsEight: at the default 4 URLs/s a domain's bucket
// holds two seconds of rate, so one domain gets exactly 8 back-to-back
// takes and then a deferral.
func TestDefaultBurstIsEight(t *testing.T) {
	_, pipe := fixtures(t)
	t0 := time.Date(2026, 7, 29, 0, 0, 0, 0, time.UTC)
	s, err := New(Config{Fetcher: staticFetcher, Pipeline: pipe, Workers: 1, now: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	if got := takeTokens(s, "campaign.test", t0, 8); got != 8 {
		t.Errorf("%d of 8 back-to-back takes granted", got)
	}
	if got := takeTokens(s, "campaign.test", t0, 1); got != 0 {
		t.Error("9th back-to-back take granted, want a deferral")
	}
}

// TestBucketsShrinkToRecentDomains: a feed of distinct domains must not
// grow the bucket map without bound. Once the clock passes the refill
// time, every bucket the flood left is full and goes at the next sweep,
// so the map holds only the domains seen since.
func TestBucketsShrinkToRecentDomains(t *testing.T) {
	_, pipe := fixtures(t)
	var mu sync.Mutex
	now := time.Date(2026, 7, 29, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s, err := New(Config{Fetcher: staticFetcher, Pipeline: pipe, Workers: 1, now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)
	const flood = 10_000
	for i := 0; i < flood; i++ {
		if takeTokens(s, fmt.Sprintf("d%d.test", i), clock(), 1) != 1 {
			t.Fatalf("first take of domain %d denied", i)
		}
	}
	// 2s refills an 8-token bucket at 4 tokens/s.
	mu.Lock()
	now = now.Add(2*time.Second + time.Millisecond)
	mu.Unlock()
	const recent = 3
	for i := 0; i < recent; i++ {
		takeTokens(s, fmt.Sprintf("late%d.test", i), clock(), 1)
	}
	// A domain from the flood is back to a fresh bucket's full burst.
	if got := takeTokens(s, "d0.test", clock(), 9); got != 8 {
		t.Errorf("flood domain after refill: %d takes granted, want 8", got)
	}
	s.mu.Lock()
	n := len(s.buckets)
	s.mu.Unlock()
	if n > recent+1 {
		t.Errorf("%d buckets after the refill time, want at most %d (the domains seen since)", n, recent+1)
	}
}

// TestFailedFetchIsFinal: a URL the fetcher does not hold is persisted
// as a failure record on its first fetch, and Drain does not wait out
// a backoff for it.
func TestFailedFetchIsFinal(t *testing.T) {
	_, pipe := fixtures(t)
	st := newStore(t)
	var mu sync.Mutex
	fetches := 0
	dead := fetcherFunc(func(string) (*webgen.Page, bool) {
		mu.Lock()
		fetches++
		mu.Unlock()
		return nil, false
	})
	s, err := New(Config{Fetcher: dead, Pipeline: pipe, Store: st, Workers: 1, DomainRate: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const url = "https://gone.test/login"
	if err := s.Enqueue(url); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	start := time.Now()
	drain(t, s)
	// One failed fetch and one append: nothing waits to retry.
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Errorf("drain took %v, want no backoff", took)
	}
	stats := s.Stats()
	if stats.Failed != 1 || stats.Processed != 0 || stats.Retries != 0 || fetches != 1 {
		t.Fatalf("stats = %+v after %d fetches, want failed=1 retries=0 after 1", stats, fetches)
	}
	rec, ok := get(t, st, url)
	if !ok || rec.Error == "" {
		t.Fatalf("failure not persisted: %+v ok=%v", rec, ok)
	}
}

func TestDrainDeadlineDropsRemaining(t *testing.T) {
	c, pipe := fixtures(t)
	bf := &blockingFetcher{gate: make(chan struct{}), inner: c.World, started: make(chan string, 1)}
	s, err := New(Config{Fetcher: bf, Pipeline: pipe, Workers: 1, DomainRate: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Enqueue(c.World.BrandSiteURLs(c.World.Brands[i])[0]); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	<-bf.started
	// The worker is wedged in Fetch; release it right after the drain
	// deadline forces the queued URLs to be dropped. The released item
	// then reaches the scoring stage with the scheduler's context
	// already cancelled, so its in-flight work is cut off too: all
	// three URLs are dropped — two swept from the queue, one abandoned
	// mid-flight — and nothing is processed.
	time.AfterFunc(200*time.Millisecond, func() { close(bf.gate) })
	dropped := s.Drain(time.Now().Add(50 * time.Millisecond))
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (2 queued + 1 in-flight abandoned)", dropped)
	}
	if st := s.Stats(); st.Dropped != 3 || st.Processed != 0 {
		t.Errorf("stats = %+v, want dropped=3 processed=0", st)
	}
}

func TestPanicInPipelineContained(t *testing.T) {
	_, pipe := fixtures(t)
	st := newStore(t)
	boom := fetcherFunc(func(string) (*webgen.Page, bool) { panic("malformed page") })
	s, err := New(Config{Fetcher: boom, Pipeline: pipe, Store: st, Workers: 2, DomainRate: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Enqueue("https://evil.test/"); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if err := s.Enqueue("https://evil2.test/"); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	drain(t, s)
	if stats := s.Stats(); stats.Failed != 2 {
		t.Errorf("stats = %+v, want failed=2 (panics contained per item)", stats)
	}
}
