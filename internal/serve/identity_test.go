package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"testing"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/racecheck"
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
	s := newServer(t, func(cfg *Config) { cfg.MemoEntries = 16 }) // 1 entry/shard
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
// until stop is closed, requiring that every response for one (page,
// model version) carries one score and that hits carry no timings.
func scoreLoop(t *testing.T, s *Server, pages []PageRequest, workers int, stop <-chan struct{}) *sync.WaitGroup {
	var seen sync.Map // "page/version" → score
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
				key := fmt.Sprintf("%d/%s", p, resp.ModelVersion)
				if prev, dup := seen.LoadOrStore(key, resp.Score); dup && prev != resp.Score {
					t.Errorf("page %s scored %v and %v", key, prev, resp.Score)
				}
				if resp.Cached && (resp.Timings != core.StageTimings{} || resp.Memo != nil) {
					t.Errorf("hit carries timings or provenance: %+v", resp)
				}
			}
		}(w)
	}
	return &wg
}

// TestCacheVersionStaleness pins the hot-swap contract on the one path:
// a promote between two identical requests makes the second a miss
// scored by the new champion, every stage computed, while other scorers
// keep hitting the same tables.
func TestCacheVersionStaleness(t *testing.T) {
	c, _ := fixtures(t)
	s, _ := registryServer(t)
	var pages []PageRequest
	for _, ex := range c.PhishTest.Examples[1:5] {
		pages = append(pages, PageRequest{Snapshot: ex.Snapshot})
	}
	stop := make(chan struct{})
	wg := scoreLoop(t, s, pages, 4, stop)
	defer wg.Wait()
	defer close(stop)

	// A page only this goroutine scores.
	own := V2ScoreRequest{PageRequest: PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot}}
	var first, hit, swapped, again V2ScoreResponse
	call(t, s, http.MethodPost, "/v2/score", own, &first)
	call(t, s, http.MethodPost, "/v2/score", own, &hit)
	if first.Cached || !hit.Cached || hit.ModelVersion != "v0001" {
		t.Fatalf("before the promote: cached %v then %v under %q", first.Cached, hit.Cached, hit.ModelVersion)
	}
	var prom PromoteResponse
	if code := call(t, s, http.MethodPost, "/v2/models/promote", PromoteRequest{Version: "v0002"}, &prom); code != http.StatusOK {
		t.Fatalf("promote = %d", code)
	}
	call(t, s, http.MethodPost, "/v2/score", own, &swapped)
	if swapped.Cached || swapped.ModelVersion != "v0002" {
		t.Errorf("after the promote: cached=%v model_version=%q; want a miss under v0002", swapped.Cached, swapped.ModelVersion)
	}
	if m := swapped.Memo; m == nil || m.Analysis != core.ProvComputed || m.Features != core.ProvComputed ||
		m.Score != core.ProvComputed || m.Target == core.ProvMemo {
		t.Errorf("after the promote: provenance %+v; want every stage computed", m)
	}
	if swapped.ContentFingerprint != first.ContentFingerprint {
		t.Error("the content fingerprint changed with the model")
	}
	call(t, s, http.MethodPost, "/v2/score", own, &again)
	if !again.Cached || again.ModelVersion != "v0002" || again.Score != swapped.Score {
		t.Errorf("new champion's verdict not reused: %+v", again)
	}
}

// TestCacheConcurrent hammers a memo too small for its traffic from
// many connections, so hits, misses, write-backs and evictions of the
// same entries interleave (run under -race), then checks the ledger:
// every request was a hit or a miss, and exactly the misses scored.
func TestCacheConcurrent(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) { cfg.MemoEntries = 16 })
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
// for a positive carrying a target result.
func TestScoreSnapWarmAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c, _ := fixtures(t)
	s := newServer(t, nil)
	pipe, err := s.pipeline()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, i := range []int{0, 1} { // detector negative, detector positive
		req := core.NewScoreRequest(c.PhishTest.Examples[i].Snapshot)
		if _, cached, err := s.scoreSnap(ctx, prioInteractive, pipe, req, coalesce.CacheDefault); err != nil || cached {
			t.Fatalf("page %d warm-up: cached=%v err=%v", i, cached, err)
		}
		n := testing.AllocsPerRun(200, func() {
			v, cached, err := s.scoreSnap(ctx, prioInteractive, pipe, req, coalesce.CacheDefault)
			if err != nil || !cached || v.ContentFingerprint == "" || v.TargetRun != (i == 1) {
				t.Fatalf("page %d: not a full hit: cached=%v err=%v", i, cached, err)
			}
		})
		if n != 0 {
			t.Errorf("page %d: a warm hit allocates %.1f per run, want 0", i, n)
		}
	}
}
