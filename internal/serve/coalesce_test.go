package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/racecheck"
)

// callHdr is call with request headers and access to the raw recorder
// (the ETag tests read response headers and status without a body).
func callHdr(t *testing.T, s *Server, method, path string, body any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestScoreV2ETagAndConditionalGet pins the v2 cache-validation
// contract: verdicts carry an ETag derived from the page's content
// fingerprint, "<fingerprint>-", and If-None-Match revalidation answers
// 304 without a body when the tag still holds.
func TestScoreV2ETagAndConditionalGet(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := c.PhishTest.Examples[0].Snapshot
	body := V2ScoreRequest{PageRequest: PageRequest{Snapshot: snap}}

	rec := callHdr(t, s, http.MethodPost, "/v2/score", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("fresh v2 verdict carries no ETag")
	}
	var resp V2ScoreResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.ContentFingerprint == "" {
		t.Fatal("fresh v2 verdict carries no content fingerprint")
	}
	if want := `"` + resp.ContentFingerprint + `-"`; etag != want {
		t.Errorf("ETag = %s, want %s", etag, want)
	}

	// Revalidation with the current tag: 304, empty body, tag echoed.
	for name, header := range map[string]string{
		"exact":    etag,
		"weak":     "W/" + etag,
		"wildcard": "*",
		"list":     `"other", ` + etag,
	} {
		rec = callHdr(t, s, http.MethodPost, "/v2/score", body, map[string]string{"If-None-Match": header})
		if rec.Code != http.StatusNotModified {
			t.Errorf("%s: status = %d, want 304", name, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Errorf("%s: 304 carried a body: %q", name, rec.Body.String())
		}
		if got := rec.Header().Get("ETag"); got != etag {
			t.Errorf("%s: 304 ETag = %q, want %q", name, got, etag)
		}
	}

	// A skip_target verdict of a detector positive is partial and tagged
	// apart: its tag gets the full request the full body, never a 304
	// that would leave the client holding a call the target stage may
	// overturn; the full tag still revalidates.
	positive := func() (full, skip V2ScoreRequest) {
		for _, ex := range c.PhishTest.Examples {
			full = V2ScoreRequest{PageRequest: PageRequest{Snapshot: ex.Snapshot}}
			skip = full
			skip.SkipTarget = true
			var probe V2ScoreResponse
			call(t, s, http.MethodPost, "/v2/score", skip, &probe)
			if probe.DetectorPhish {
				return full, skip
			}
		}
		t.Fatal("no detector positive among the test pages")
		return
	}
	full, skip := positive()
	skipTag := callHdr(t, s, http.MethodPost, "/v2/score", skip, nil).Header().Get("ETag")
	rec = callHdr(t, s, http.MethodPost, "/v2/score", full, map[string]string{"If-None-Match": skipTag})
	fullTag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 || fullTag == "" || fullTag == skipTag {
		t.Errorf("skip tag %s on a full request: status = %d, body %d bytes, ETag %s; want 200 with body and a tag of its own",
			skipTag, rec.Code, rec.Body.Len(), fullTag)
	}
	rec = callHdr(t, s, http.MethodPost, "/v2/score", full, map[string]string{"If-None-Match": fullTag})
	if rec.Code != http.StatusNotModified {
		t.Errorf("full tag on a full request: status = %d, want 304", rec.Code)
	}
	rec = callHdr(t, s, http.MethodPost, "/v2/score", skip, map[string]string{"If-None-Match": skipTag})
	if rec.Code != http.StatusNotModified {
		t.Errorf("skip tag on a skip_target request: status = %d, want 304", rec.Code)
	}

	// A stale tag gets the full body.
	rec = callHdr(t, s, http.MethodPost, "/v2/score", body, map[string]string{"If-None-Match": `"deadbeef-v9"`})
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Errorf("stale tag: status = %d, body %d bytes; want 200 with body", rec.Code, rec.Body.Len())
	}

	// Cache-control modes that ask for recomputation never shortcut to
	// 304 — the client wants the recomputed body.
	for _, cc := range []string{"no-memo", "refresh"} {
		req := body
		req.CacheControl = cc
		rec = callHdr(t, s, http.MethodPost, "/v2/score", req, map[string]string{"If-None-Match": etag})
		if rec.Code != http.StatusOK {
			t.Errorf("cache_control=%s with matching tag: status = %d, want 200", cc, rec.Code)
		}
	}

	// An explain response carries evidence a bare 304 would withhold.
	exp := body
	exp.Explain = "top"
	rec = callHdr(t, s, http.MethodPost, "/v2/score", exp, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK {
		t.Errorf("explain with matching tag: status = %d, want 200", rec.Code)
	}
}

// TestScoreV2CacheControl pins the three cache_control modes.
func TestScoreV2CacheControl(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := c.PhishTest.Examples[1].Snapshot
	score := func(cc string) V2ScoreResponse {
		var resp V2ScoreResponse
		code := call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
			PageRequest:  PageRequest{Snapshot: snap},
			ScoreOptions: ScoreOptions{CacheControl: cc},
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("cache_control=%q: status = %d", cc, code)
		}
		return resp
	}

	first := score("no-memo")
	if first.Cached {
		t.Error("first no-memo request claims cached")
	}
	// no-memo neither wrote nor reads: a repeat recomputes, and so does
	// a default request (nothing was stored).
	if again := score("no-memo"); again.Cached {
		t.Error("no-memo request served from cache")
	}
	warm := score("")
	if warm.Cached {
		t.Error("no-memo left state behind: default request hit a cache")
	}

	// The default request wrote; a repeat is a hit.
	if hit := score("default"); !hit.Cached {
		t.Error("default request after a write missed the cache")
	}

	// refresh recomputes even with a warm cache, then overwrites.
	ref := score("refresh")
	if ref.Cached {
		t.Error("refresh request served from cache")
	}
	if ref.Timings.TotalNS == 0 {
		t.Error("refresh verdict carries no fresh timings")
	}
	if hit := score(""); !hit.Cached {
		t.Error("refresh did not repopulate the cache")
	}

	// Every mode agrees on the verdict.
	if first.Score != warm.Score || ref.Score != warm.Score {
		t.Errorf("scores diverge across cache modes: %v %v %v", first.Score, warm.Score, ref.Score)
	}

	// Unknown modes are a 400.
	var eresp errorResponse
	if code := call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
		PageRequest:  PageRequest{Snapshot: snap},
		ScoreOptions: ScoreOptions{CacheControl: "never"},
	}, &eresp); code != http.StatusBadRequest {
		t.Errorf("cache_control=never: status = %d, want 400", code)
	}
}

// TestScoreBatchV2 exercises the new batch surface: ordered results,
// agreement with single scoring, memo provenance on warm repeats, and
// the validation failures.
func TestScoreBatchV2(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	const n = 4
	pages := make([]PageRequest, n)
	for i := range pages {
		pages[i] = PageRequest{Snapshot: c.PhishTest.Examples[i].Snapshot}
	}

	var batch V2BatchResponse
	if code := call(t, s, http.MethodPost, "/v2/score/batch", V2BatchRequest{Pages: pages}, &batch); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if batch.Count != n || len(batch.Results) != n {
		t.Fatalf("count = %d, results = %d, want %d", batch.Count, len(batch.Results), n)
	}
	for i, res := range batch.Results {
		if res.LandingURL != pages[i].Snapshot.LandingURL {
			t.Fatalf("result %d out of order: %q", i, res.LandingURL)
		}
		if res.ContentFingerprint == "" {
			t.Errorf("result %d missing content fingerprint", i)
		}
		var single V2ScoreResponse
		call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: pages[i]}, &single)
		if single.Score != res.Score || single.FinalPhish != res.FinalPhish {
			t.Errorf("result %d diverges from single scoring: %v vs %v", i, res.Score, single.Score)
		}
	}

	// The repeat runs warm: every result is a cache hit, the same
	// document /v2/score answers a repeat with.
	var again V2BatchResponse
	call(t, s, http.MethodPost, "/v2/score/batch", V2BatchRequest{Pages: pages}, &again)
	for i, res := range again.Results {
		if !res.Cached || res.Memo != nil || res.Timings.TotalNS != 0 {
			t.Errorf("warm result %d: cached=%v memo=%v total_ns=%d; want a hit without provenance or timings",
				i, res.Cached, res.Memo, res.Timings.TotalNS)
		}
		if res.Score != batch.Results[i].Score || res.ContentFingerprint != batch.Results[i].ContentFingerprint {
			t.Errorf("warm result %d diverges from the first pass", i)
		}
	}

	var eresp errorResponse
	if code := call(t, s, http.MethodPost, "/v2/score/batch", V2BatchRequest{}, &eresp); code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", code)
	}
	if code := call(t, s, http.MethodPost, "/v2/score/batch", V2BatchRequest{Pages: overLimitPages()}, &eresp); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit batch: status = %d, want 413", code)
	}
	if m := s.Metrics(); m.BatchRejected != 1 {
		t.Errorf("batch_rejected = %d, want 1", m.BatchRejected)
	}
}

// optionShapes are the wire shapes of a score request's options and what
// coreOptions resolves each to; a zero want.Deadline stands for the
// server's default deadline.
var optionShapes = []struct {
	name string
	wire ScoreOptions
	want core.Options
	cc   coalesce.CacheControl
}{
	{"defaulted", ScoreOptions{}, core.Options{}, coalesce.CacheDefault},
	{"skip_target+no-memo", ScoreOptions{SkipTarget: true, CacheControl: "no-memo"},
		core.Options{SkipTarget: true}, coalesce.CacheNoMemo},
	{"deadline+top", ScoreOptions{DeadlineMS: 250, Explain: "top", TopFeatures: 4},
		core.Options{Deadline: 250 * time.Millisecond, Explain: core.ExplainTop, TopFeatures: 4}, coalesce.CacheDefault},
	{"full+refresh", ScoreOptions{Explain: "full", CacheControl: "refresh"},
		core.Options{Explain: core.ExplainFull}, coalesce.CacheRefresh},
}

// TestCoreOptionsHoistedSlices pins what coreOptions resolves: for each
// wire shape, on a server with and without a default deadline, the
// documented core options with the deadline filled in, and the
// cache-control mode, which is not a core option. The name is kept from
// when the common shapes shared option slices built once in New.
func TestCoreOptionsHoistedSlices(t *testing.T) {
	for _, dl := range []time.Duration{0, time.Second} {
		s := newServer(t, func(cfg *Config) { cfg.DefaultDeadline = dl })
		for _, sh := range optionShapes {
			want := sh.want
			if want.Deadline == 0 {
				want.Deadline = dl
			}
			opts, cc, err := s.coreOptions(sh.wire)
			if err != nil || opts != want || cc != sh.cc {
				t.Errorf("default deadline %v, %s: got %+v cc=%v err=%v, want %+v cc=%v", dl, sh.name, opts, cc, err, want, sh.cc)
			}
		}
	}
}

// TestDefaultScoreRequestAllocs: on a server without a default
// deadline, resolving a default /v2/score request's options and
// building its core.ScoreRequest allocates nothing — the request stays
// on the stack.
func TestDefaultScoreRequestAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := c.PhishTest.Examples[0].Snapshot
	if allocs := testing.AllocsPerRun(200, func() {
		opts, _, err := s.coreOptions(ScoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		req := core.NewScoreRequest(snap)
		req.Options = opts
		if req.Snapshot == nil {
			t.Fatal("request lost its snapshot")
		}
	}); allocs != 0 {
		t.Fatalf("default request build allocated %.1f times per run, want 0", allocs)
	}
}

// TestScoreRequestOptionsAllocs pins the option path of every scoring
// endpoint at zero allocations: for each wire shape, on a server with
// and without a default deadline, coreOptions plus the request build
// allocate nothing.
func TestScoreRequestOptionsAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, _ := fixtures(t)
	snap := c.PhishTest.Examples[0].Snapshot
	for _, dl := range []time.Duration{0, time.Second} {
		s := newServer(t, func(cfg *Config) { cfg.DefaultDeadline = dl })
		for _, sh := range optionShapes {
			if allocs := testing.AllocsPerRun(200, func() {
				opts, _, err := s.coreOptions(sh.wire)
				if err != nil {
					t.Fatal(err)
				}
				if req := (core.ScoreRequest{Snapshot: snap, Options: opts}); req.Snapshot == nil {
					t.Fatal("request lost its snapshot")
				}
			}); allocs != 0 {
				t.Errorf("default deadline %v, %s: request build allocated %.1f times per run, want 0", dl, sh.name, allocs)
			}
		}
	}
}
