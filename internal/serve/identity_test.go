package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/feed"
	"knowphish/internal/racecheck"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var fingerprintField = regexp.MustCompile(`"content_fingerprint":"[0-9a-f]{32}"`)

// TestWarmHitDocumentUnchanged holds a repeat /v2/score request under
// the default configuration to a recorded document, byte for byte:
// cached, zero timings, no memo object. The golden was recorded at
// commit ca1b6bf, when a separate verdict cache in front of the stage
// memo produced it: a drift is a wire change for v2 clients, not a
// reason to regenerate. The fingerprint's value is masked (its hash
// changed since) but its 32-hex shape is part of the match.
func TestWarmHitDocumentUnchanged(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	// A detector positive: the document carries a target result.
	body := V2ScoreRequest{PageRequest: PageRequest{Snapshot: c.PhishTest.Examples[1].Snapshot}}
	callHdr(t, s, http.MethodPost, "/v2/score", body, nil)
	rec := callHdr(t, s, http.MethodPost, "/v2/score", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if n := len(fingerprintField.FindAll(rec.Body.Bytes(), -1)); n != 1 {
		t.Fatalf("%d 32-hex content_fingerprint fields in %s, want 1", n, rec.Body)
	}
	got := fingerprintField.ReplaceAll(rec.Body.Bytes(), []byte(`"content_fingerprint":"<32 hex>"`))

	path := filepath.Join("testdata", "golden_v2_warm_hit.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("warm-hit document drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestV1BatchThenV2HasETag: whichever endpoint scores a page first —
// here one whose wire format has no fingerprint — a later /v2/score hit
// carries the ETag and can be revalidated.
func TestV1BatchThenV2HasETag(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	page := PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot}
	if rec := callHdr(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{Pages: []PageRequest{page}}, nil); rec.Code != http.StatusOK {
		t.Fatalf("v1 batch status = %d", rec.Code)
	}
	rec := callHdr(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: page}, nil)
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("/v2/score after a v1 batch: status %d, ETag %q; want 200 with a tag", rec.Code, etag)
	}
	rec = callHdr(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: page}, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified {
		t.Errorf("revalidation status = %d, want 304", rec.Code)
	}
}

// TestCacheGetPut pins the one cache at the server's surface: a scored
// page is got back as a hit with the same outcome, another page is not,
// and a refresh overwrites the page's entry instead of adding one.
func TestCacheGetPut(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	score := func(i int, cc string) V2ScoreResponse {
		var resp V2ScoreResponse
		call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
			PageRequest:  PageRequest{Snapshot: c.PhishTest.Examples[i].Snapshot},
			ScoreOptions: ScoreOptions{CacheControl: cc},
		}, &resp)
		return resp
	}
	put := score(1, "")
	got := score(1, "")
	if put.Cached || !got.Cached {
		t.Fatalf("cached flags = %v, %v; want a miss then a hit", put.Cached, got.Cached)
	}
	gotOut, _ := json.Marshal(got.Outcome)
	putOut, _ := json.Marshal(put.Outcome)
	if !bytes.Equal(gotOut, putOut) || got.ContentFingerprint != put.ContentFingerprint {
		t.Errorf("hit outcome %s differs from the computed one %s", gotOut, putOut)
	}
	if other := score(0, ""); other.Cached {
		t.Error("a different page hit")
	}
	score(1, "refresh")
	if n := s.Metrics().Coalesce.Score.Entries; n != 2 {
		t.Errorf("score memo holds %d entries for 2 pages", n)
	}
}

// scoreDistinctPages posts n distinct small pages to /v1/score, the
// same n on every call, and returns how many answered from cache.
func scoreDistinctPages(t *testing.T, s *Server, n int) (hits int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var resp ScoreResponse
		page := PageRequest{
			HTML:       fmt.Sprintf("<title>page %d</title><body>content %d</body>", i, i),
			LandingURL: fmt.Sprintf("http://host%d.test/", i),
		}
		if code := call(t, s, http.MethodPost, "/v1/score", page, &resp); code != http.StatusOK {
			t.Fatalf("score %d: status = %d", i, code)
		}
		if resp.Cached {
			hits++
		}
	}
	return hits
}

// TestCacheEviction: the memo is bounded, and an evicted page is
// recomputed, not served stale or lost.
func TestCacheEviction(t *testing.T) {
	s := newServer(t, func(cfg *Config) { cfg.Coalescer = coalesce.New(coalesce.Config{MemoEntries: 16}) }) // 1 entry/shard
	const n = 64
	pass := func() int { return scoreDistinctPages(t, s, n) }
	if hits := pass(); hits != 0 {
		t.Fatalf("%d hits among distinct pages", hits)
	}
	if entries := s.Metrics().Coalesce.Score.Entries; entries > 16 {
		t.Errorf("score memo holds %d entries, capacity 16", entries)
	}
	// At most the 16 resident pages can hit on a replay; the rest were
	// evicted and score again.
	if hits := pass(); hits > 16 {
		t.Errorf("%d hits replaying %d pages through a 16-entry memo", hits, n)
	}
	if m := s.Metrics(); m.CacheHits+m.CacheMisses != 2*n || m.PagesScored != m.CacheMisses {
		t.Errorf("ledger: hits %d + misses %d != %d requests, or scored %d != misses", m.CacheHits, m.CacheMisses, 2*n, m.PagesScored)
	}
}

// scoreLoop posts pages[i%len] to /v2/score from workers goroutines
// until stop is closed, requiring that every response for one page
// carries one score and that hits carry no timings.
func scoreLoop(t *testing.T, s *Server, pages []PageRequest, workers int, stop <-chan struct{}) *sync.WaitGroup {
	var seen sync.Map // page → score
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := i % len(pages)
				rec := callHdr(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: pages[p]}, nil)
				var resp V2ScoreResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
					t.Errorf("concurrent score: status %d, decode %v", rec.Code, err)
					return
				}
				if prev, dup := seen.LoadOrStore(p, resp.Score); dup && prev != resp.Score {
					t.Errorf("page %d scored %v and %v", p, prev, resp.Score)
				}
				if resp.Cached && (resp.Timings != core.StageTimings{} || resp.Memo != nil) {
					t.Errorf("hit carries timings or provenance: %+v", resp)
				}
			}
		}(w)
	}
	return &wg
}

// TestCacheConcurrent hammers a memo too small for its traffic from
// many connections, so hits, misses, write-backs and evictions of the
// same entries interleave (run under -race), then checks the ledger:
// every request was a hit or a miss, and exactly the misses scored.
func TestCacheConcurrent(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) { cfg.Coalescer = coalesce.New(coalesce.Config{MemoEntries: 16}) })
	var pages []PageRequest
	for i := 0; i < 12; i++ {
		pages = append(pages, PageRequest{Snapshot: c.PhishTest.Examples[i].Snapshot}, PageRequest{Snapshot: c.LegTrain.Examples[i].Snapshot})
	}
	stop := make(chan struct{})
	wg := scoreLoop(t, s, pages, 8, stop)
	for s.Metrics().Requests < 400 {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	m := s.Metrics()
	if m.CacheHits == 0 || m.CacheMisses < int64(len(pages)) {
		t.Errorf("hits %d, misses %d: want both kinds of traffic", m.CacheHits, m.CacheMisses)
	}
	if m.CacheHits+m.CacheMisses != m.Requests || m.PagesScored != m.CacheMisses {
		t.Errorf("ledger: hits %d + misses %d vs %d requests; scored %d", m.CacheHits, m.CacheMisses, m.Requests, m.PagesScored)
	}
}

// TestScoreSnapWarmAllocs pins the hit path every endpoint shares off
// the heap: hash, score and target lookups, verdict assembly — for a negative and
// for a positive carrying a target result, decoded into the buffer the
// request lends as every endpoint's does (AllocsPerRun's warm-up call
// grows it).
func TestScoreSnapWarmAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c, _ := fixtures(t)
	s := newServer(t, nil)
	ctx := context.Background()
	for _, i := range []int{0, 1} { // detector negative, detector positive
		req := core.NewScoreRequest(c.PhishTest.Examples[i].Snapshot).WithTargetBuffer(&core.TargetBuffer{})
		if _, cached, err := s.scoreSnap(ctx, prioInteractive, req, coalesce.CacheDefault); err != nil || cached {
			t.Fatalf("page %d warm-up: cached=%v err=%v", i, cached, err)
		}
		n := testing.AllocsPerRun(200, func() {
			v, cached, err := s.scoreSnap(ctx, prioInteractive, req, coalesce.CacheDefault)
			if err != nil || !cached || v.ContentKey == (webpage.Key128{}) || v.TargetRun != (i == 1) {
				t.Fatalf("page %d: not a full hit: cached=%v err=%v", i, cached, err)
			}
		})
		if n != 0 {
			t.Errorf("page %d: a warm hit allocates %.1f per run, want 0", i, n)
		}
	}
}

// cloakingSite answers one URL with whichever of its two pages is
// switched on: what a cloaking phish does between its victim and a
// crawler, or between two visits.
type cloakingSite struct {
	pages [2]*webgen.Page
	shown atomic.Int32
}

func (c *cloakingSite) Fetch(url string) (*webgen.Page, bool) {
	if url != c.pages[0].URL {
		return nil, false
	}
	return c.pages[c.shown.Load()], true
}

// TestCloakingIsTwoPages: one starting and landing URL that answers
// with different bytes is two pages to every identity the system
// trusts. Scored over HTTP the two get different fingerprints and
// ETags, neither is answered from the other's memo entry and neither's
// tag revalidates the other; crawled through the feed they leave two
// store fingerprints under the one URL.
func TestCloakingIsTwoPages(t *testing.T) {
	const url = "http://cloaked.test/account"
	site := &cloakingSite{pages: [2]*webgen.Page{
		{URL: url, HTML: "<title>Sign in</title><body><form><input name=user><input type=password name=pass></form> verify your account</body>"},
		{URL: url, HTML: "<title>Garden notes</title><body>tomatoes want sun and water</body>"},
	}}
	s, sched, _ := feedServer(t, t.TempDir(), []crawl.Fetcher{site}, nil)

	score := func(shown int, hdr map[string]string) (V2ScoreResponse, *httptest.ResponseRecorder) {
		t.Helper()
		body := V2ScoreRequest{PageRequest: PageRequest{HTML: site.pages[shown].HTML, StartingURL: url, LandingURL: url}}
		rec := callHdr(t, s, http.MethodPost, "/v2/score", body, hdr)
		var resp V2ScoreResponse
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
		return resp, rec
	}
	first, recFirst := score(0, nil)
	second, recSecond := score(1, nil)
	if recFirst.Code != http.StatusOK || recSecond.Code != http.StatusOK {
		t.Fatalf("status = %d, %d", recFirst.Code, recSecond.Code)
	}
	if first.Cached || second.Cached {
		t.Errorf("cached = %v, %v: the second fetch was answered from the first's memo entry", first.Cached, second.Cached)
	}
	if first.ContentFingerprint == "" || first.ContentFingerprint == second.ContentFingerprint {
		t.Errorf("content fingerprints %q and %q: want two", first.ContentFingerprint, second.ContentFingerprint)
	}
	tagFirst, tagSecond := recFirst.Header().Get("ETag"), recSecond.Header().Get("ETag")
	if tagFirst == "" || tagFirst == tagSecond {
		t.Errorf("ETags %q and %q: want two", tagFirst, tagSecond)
	}
	for shown, stale := range []string{tagSecond, tagFirst} {
		if _, rec := score(shown, map[string]string{"If-None-Match": stale}); rec.Code != http.StatusOK {
			t.Errorf("page %d revalidated against the other page's tag: status %d", shown, rec.Code)
		}
	}
	// Each page has an entry of its own: both are hits now, each with
	// its own fingerprint.
	for shown, want := range []V2ScoreResponse{first, second} {
		if again, _ := score(shown, nil); !again.Cached || again.ContentFingerprint != want.ContentFingerprint || again.Score != want.Score {
			t.Errorf("page %d again: cached=%v fingerprint %q score %v, want a hit on %q / %v", shown, again.Cached, again.ContentFingerprint, again.Score, want.ContentFingerprint, want.Score)
		}
	}

	for shown := range site.pages {
		site.shown.Store(int32(shown))
		var fr FeedResponse
		if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: []string{url}}, &fr); code != http.StatusOK || fr.Accepted != 1 {
			t.Fatalf("feed %d: status %d, %+v", shown, code, fr)
		}
		if !sched.Wait(time.Now().Add(30 * time.Second)) {
			t.Fatal("ingestion did not finish")
		}
	}
	var vr VerdictsResponse
	if code := call(t, s, http.MethodGet, "/v1/verdicts?url="+url, nil, &vr); code != http.StatusOK {
		t.Fatalf("GET /v1/verdicts status = %d", code)
	}
	stored := map[string]bool{}
	for _, rec := range vr.Records {
		if rec.URL != url || rec.Error != "" {
			t.Fatalf("record = %+v", rec)
		}
		stored[rec.Fingerprint] = true
	}
	if len(vr.Records) != 2 || !stored[first.ContentFingerprint] || !stored[second.ContentFingerprint] {
		t.Errorf("store holds fingerprints %v under %s, want the two the score endpoint gave: %q and %q", stored, url, first.ContentFingerprint, second.ContentFingerprint)
	}
}

// staticSite answers each of its URLs with one fixed html page.
type staticSite map[string]string

func (s staticSite) Fetch(url string) (*webgen.Page, bool) {
	html, ok := s[url]
	if !ok {
		return nil, false
	}
	return &webgen.Page{URL: url, HTML: html}, true
}

// TestFingerprintSpelledWhereRendered: the memo keeps a page's key and
// every place that writes the page's identity out spells it. On a miss
// and on a hit, the content_fingerprint of a /v2/score document, the
// stem of its ETag, every /v2/score/batch item's and every
// /v2/score/stream line's fingerprint, and the fingerprint of a store
// record the feed wrote through the shared memo are
// webpage.Fingerprint of the scored snapshot.
func TestFingerprintSpelledWhereRendered(t *testing.T) {
	c, _ := fixtures(t)
	const phishURL, legitURL = "http://spelled.test/login", "http://spelled.test/notes"
	site := staticSite{
		phishURL: "<title>Sign in</title><body><form><input name=user><input type=password name=pass></form> verify your account</body>",
		legitURL: "<title>Garden notes</title><body>tomatoes want sun and water</body>",
	}
	var s *Server
	s, sched, _ := feedServer(t, t.TempDir(), []crawl.Fetcher{site}, func(fc *feed.Config) {
		fc.Score = func(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest) (core.Verdict, error) {
			return s.coal.Do(ctx, pipe, req, coalesce.CacheDefault, nil)
		}
	})
	// Each endpoint scores pages of its own, so its first request is a
	// miss and its second a hit.
	pages := func(i int) []PageRequest {
		return []PageRequest{{Snapshot: c.PhishTest.Examples[i].Snapshot}, {Snapshot: c.LegTrain.Examples[i].Snapshot}}
	}
	check := func(where string, p PageRequest, cached, wantCached bool, fp string) {
		t.Helper()
		if cached != wantCached {
			t.Errorf("%s: cached=%v, want %v", where, cached, wantCached)
		}
		if want := webpage.Fingerprint(p.Snapshot); fp != want {
			t.Errorf("%s: fingerprint %q, want %q", where, fp, want)
		}
	}
	for round, hit := range []bool{false, true} {
		for i, p := range pages(0) {
			rec := rawCall(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: p}, nil)
			var d V2ScoreResponse
			mustUnmarshal(t, rec.Body.Bytes(), &d)
			where := fmt.Sprintf("/v2/score round %d page %d", round, i)
			check(where, p, d.Cached, hit, d.ContentFingerprint)
			if etag := rec.Header().Get("ETag"); len(etag) < 33 || etag[1:33] != d.ContentFingerprint {
				t.Errorf("%s: ETag %s does not start with the fingerprint %q", where, etag, d.ContentFingerprint)
			}
		}

		batch := pages(1)
		var bd V2BatchResponse
		mustUnmarshal(t, rawCall(t, s, http.MethodPost, "/v2/score/batch", V2BatchRequest{Pages: batch}, nil).Body.Bytes(), &bd)
		if len(bd.Results) != len(batch) {
			t.Fatalf("batch returned %d results for %d pages", len(bd.Results), len(batch))
		}
		for i, res := range bd.Results {
			check(fmt.Sprintf("/v2/score/batch round %d item %d", round, i), batch[i], res.Cached, hit, res.ContentFingerprint)
		}

		stream := pages(2)
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for _, p := range stream {
			if err := enc.Encode(V2ScoreRequest{PageRequest: p}); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/score/stream", &body))
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		if len(lines) != len(stream) {
			t.Fatalf("stream returned %d lines for %d pages: %s", len(lines), len(stream), rec.Body.Bytes())
		}
		for _, line := range lines {
			var res V2StreamResult
			mustUnmarshal(t, line, &res)
			if res.V2ScoreResponse == nil {
				t.Fatalf("stream line %d failed: %s", res.Index, res.Error)
			}
			check(fmt.Sprintf("/v2/score/stream round %d line %d", round, res.Index), stream[res.Index], res.Cached, hit, res.ContentFingerprint)
		}
	}

	// The feed scores through the server's memo: the first visit of a
	// URL computes, the second is answered from the entry it left.
	for round := range 2 {
		before := s.coal.Snapshot().Score.Hits
		var fr FeedResponse
		if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: []string{phishURL, legitURL}}, &fr); code != http.StatusOK || fr.Accepted != 2 {
			t.Fatalf("feed round %d: status %d, %+v", round, code, fr)
		}
		if !sched.Wait(time.Now().Add(30 * time.Second)) {
			t.Fatal("ingestion did not finish")
		}
		if hits := s.coal.Snapshot().Score.Hits - before; hits != uint64(2*round) {
			t.Fatalf("feed round %d: %d score hits, want %d", round, hits, 2*round)
		}
		for _, url := range []string{phishURL, legitURL} {
			snap, err := crawl.Visit(site, url)
			if err != nil {
				t.Fatal(err)
			}
			var vr VerdictsResponse
			if code := call(t, s, http.MethodGet, "/v1/verdicts?url="+url, nil, &vr); code != http.StatusOK || len(vr.Records) == 0 {
				t.Fatalf("GET /v1/verdicts?url=%s: status %d, %d records", url, code, len(vr.Records))
			}
			for _, rec := range vr.Records {
				if want := webpage.Fingerprint(snap); rec.Fingerprint != want {
					t.Errorf("feed round %d: store record of %s has fingerprint %q, want %q", round, url, rec.Fingerprint, want)
				}
			}
		}
	}
}
