package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var (
	setupOnce sync.Once
	setupCorp *dataset.Corpus
	setupDet  *core.Detector
	setupErr  error
)

// fixtures builds one shared corpus + detector for every test.
func fixtures(t *testing.T) (*dataset.Corpus, *core.Detector) {
	t.Helper()
	setupOnce.Do(func() {
		setupCorp, setupErr = dataset.Build(dataset.Config{
			Seed:              41,
			Scale:             100,
			World:             webgen.Config{Seed: 42, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if setupErr != nil {
			return
		}
		snaps := append(setupCorp.LegTrain.Snapshots(), setupCorp.PhishTrain.Snapshots()...)
		labels := append(setupCorp.LegTrain.Labels(), setupCorp.PhishTrain.Labels()...)
		setupDet, setupErr = core.Train(snaps, labels, core.TrainConfig{
			Rank: setupCorp.World.Ranking(),
			GBM:  ml.GBMConfig{Trees: 50, MaxDepth: 4, Seed: 3},
		})
	})
	if setupErr != nil {
		t.Fatalf("fixtures: %v", setupErr)
	}
	return setupCorp, setupDet
}

func newServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	c, d := fixtures(t)
	cfg := Config{Detector: d, Identifier: target.New(c.Engine)}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// call sends a JSON request and decodes the JSON response into out.
func call(t *testing.T, s *Server, method, path string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestNewValidatesConfig(t *testing.T) {
	c, d := fixtures(t)
	if _, err := New(Config{Identifier: target.New(c.Engine)}); err == nil {
		t.Error("nil detector: want error")
	}
	if _, err := New(Config{Detector: d}); err == nil {
		t.Error("nil identifier: want error")
	}
}

func TestScoreEndpoint(t *testing.T) {
	c, d := fixtures(t)
	s := newServer(t, nil)
	pipe := &core.Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	for i, ex := range c.PhishTest.Examples {
		if i == 20 {
			break
		}
		var resp ScoreResponse
		code := call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: ex.Snapshot}, &resp)
		if code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if resp.Score < 0 || resp.Score > 1 {
			t.Fatalf("score %v out of range", resp.Score)
		}
		if resp.LandingURL != ex.Snapshot.LandingURL {
			t.Errorf("landing url %q, want %q", resp.LandingURL, ex.Snapshot.LandingURL)
		}
		// The serving path must agree exactly with the direct pipeline.
		v, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(ex.Snapshot))
		if err != nil {
			t.Fatalf("AnalyzeCtx: %v", err)
		}
		want := v.Outcome
		if resp.Score != want.Score || resp.FinalPhish != want.FinalPhish ||
			resp.DetectorPhish != want.DetectorPhish {
			t.Errorf("served outcome %+v != direct outcome %+v", resp.Outcome, want)
		}
	}
}

func TestScoreCaching(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := c.PhishTest.Examples[0].Snapshot

	var first, second ScoreResponse
	call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, &first)
	call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, &second)
	if first.Cached {
		t.Error("first request served from cache")
	}
	if !second.Cached {
		t.Error("second request not served from cache")
	}
	if first.Score != second.Score || first.FinalPhish != second.FinalPhish {
		t.Error("cached verdict differs from computed verdict")
	}
	m := s.Metrics()
	if m.CacheHits < 1 || m.CacheMisses < 1 {
		t.Errorf("cache counters: %+v", m)
	}
}

func TestScoreCacheDisabled(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) { cfg.Coalescer = coalesce.New(coalesce.Config{MemoEntries: -1}) })
	snap := c.PhishTest.Examples[0].Snapshot
	var resp ScoreResponse
	call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, &resp)
	call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, &resp)
	if resp.Cached {
		t.Error("cache disabled but response marked cached")
	}
}

func TestScoreFromHTML(t *testing.T) {
	s := newServer(t, nil)
	var resp ScoreResponse
	code := call(t, s, http.MethodPost, "/v1/score", PageRequest{
		HTML:        `<title>Login</title><body>please sign in <form><input type="password"></form></body>`,
		StartingURL: "http://suspicious.test/login",
		LandingURL:  "http://suspicious.test/login",
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Score < 0 || resp.Score > 1 {
		t.Errorf("score %v out of range", resp.Score)
	}
}

func TestScoreBadRequests(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	for name, body := range map[string]any{
		"empty":            PageRequest{},
		"empty_snapshot":   PageRequest{Snapshot: &webpage.Snapshot{}},
		"both":             PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot, HTML: "<p>x</p>"},
		"snapshot_and_url": PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot, LandingURL: "http://other.test/"},
		"html_no_url":      PageRequest{HTML: "<p>x</p>"},
		"unknown_field":    map[string]any{"bogus": 1},
	} {
		var resp errorResponse
		if code := call(t, s, http.MethodPost, "/v1/score", body, &resp); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		} else if resp.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
	// Raw garbage and trailing-data bodies.
	for name, body := range map[string]string{
		"garbage":  "not json",
		"trailing": `{"html":"<p>x</p>","landing_url":"http://t.test/"} extra`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s body: status = %d, want 400", name, rec.Code)
		}
	}
}

func TestBatchEndpointDeterministicAcrossWorkers(t *testing.T) {
	c, _ := fixtures(t)
	pages := make([]PageRequest, 0, 30)
	for i, ex := range c.PhishTest.Examples {
		if i == 15 {
			break
		}
		pages = append(pages, PageRequest{Snapshot: ex.Snapshot})
	}
	for i, ex := range c.LegTrain.Examples {
		if i == 15 {
			break
		}
		pages = append(pages, PageRequest{Snapshot: ex.Snapshot})
	}

	var reference BatchResponse
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		// Fresh server per worker count so caching cannot mask differences.
		s := newServer(t, nil)
		var resp BatchResponse
		code := call(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{Pages: pages, Workers: workers}, &resp)
		if code != http.StatusOK {
			t.Fatalf("workers=%d: status = %d", workers, code)
		}
		if resp.Count != len(pages) || len(resp.Results) != len(pages) {
			t.Fatalf("workers=%d: count = %d, want %d", workers, resp.Count, len(pages))
		}
		resp.ElapsedUS = 0
		if workers == 1 {
			reference = resp
			continue
		}
		if !reflect.DeepEqual(reference.Results, resp.Results) {
			t.Errorf("workers=%d: batch results differ from workers=1", workers)
		}
	}
}

func TestBatchUsesCache(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	pages := []PageRequest{
		{Snapshot: c.PhishTest.Examples[0].Snapshot},
		{Snapshot: c.PhishTest.Examples[1].Snapshot},
	}
	var first, second BatchResponse
	call(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{Pages: pages}, &first)
	call(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{Pages: pages}, &second)
	for i := range second.Results {
		if !second.Results[i].Cached {
			t.Errorf("result %d not cached on second pass", i)
		}
		if second.Results[i].Score != first.Results[i].Score {
			t.Errorf("result %d: cached score differs", i)
		}
	}
}

func TestBatchLimits(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) { cfg.MaxBatch = 2 })
	var resp errorResponse
	if code := call(t, s, http.MethodPost, "/v1/score/batch", BatchRequest{}, &resp); code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", code)
	}
	over := BatchRequest{Pages: []PageRequest{
		{Snapshot: c.PhishTest.Examples[0].Snapshot},
		{Snapshot: c.PhishTest.Examples[1].Snapshot},
		{Snapshot: c.PhishTest.Examples[2].Snapshot},
	}}
	if code := call(t, s, http.MethodPost, "/v1/score/batch", over, &resp); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status = %d, want 413", code)
	}
}

func TestBatchDeduplicatesLandingURLs(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	// Three lures funneling to the same landing page: one pipeline run.
	page := PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot}
	var resp BatchResponse
	code := call(t, s, http.MethodPost, "/v1/score/batch",
		BatchRequest{Pages: []PageRequest{page, page, page}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if m := s.Metrics(); m.PagesScored != 1 {
		t.Errorf("pages scored = %d, want 1 (deduplicated by landing URL)", m.PagesScored)
	}
	if resp.Results[0].Cached {
		t.Error("first occurrence marked cached")
	}
	for i := 1; i < len(resp.Results); i++ {
		if resp.Results[i].Score != resp.Results[0].Score {
			t.Errorf("result %d score differs from deduplicated result 0", i)
		}
		if !resp.Results[i].Cached {
			t.Errorf("result %d reused a verdict but is not marked cached", i)
		}
	}
}

func TestCacheNotPoisonableByContent(t *testing.T) {
	s := newServer(t, nil)
	// Two different pages claiming the same landing URL must not share
	// a verdict: the memo key fingerprints the content.
	benign := PageRequest{HTML: "<p>gardening tips and recipes</p>", LandingURL: "http://contested.test/"}
	phishy := PageRequest{
		HTML:       `<title>Login</title><body>verify your password now<form><input type="password"></form></body>`,
		LandingURL: "http://contested.test/",
	}
	var a, b ScoreResponse
	call(t, s, http.MethodPost, "/v1/score", benign, &a)
	call(t, s, http.MethodPost, "/v1/score", phishy, &b)
	if b.Cached {
		t.Error("different content under the same URL reused a cached verdict")
	}
	if m := s.Metrics(); m.PagesScored != 2 {
		t.Errorf("pages scored = %d, want 2 (no cross-content reuse)", m.PagesScored)
	}
	// The identical page, again: now it may hit.
	var c ScoreResponse
	call(t, s, http.MethodPost, "/v1/score", benign, &c)
	if !c.Cached {
		t.Error("identical resubmission did not hit the cache")
	}
	// The same bytes under another landing URL are another page: URL
	// features read the landing URL, so its verdict is not reusable.
	moved := benign
	moved.LandingURL = "http://elsewhere.test/"
	var d ScoreResponse
	call(t, s, http.MethodPost, "/v1/score", moved, &d)
	if d.Cached {
		t.Error("same content under a different landing URL reused a cached verdict")
	}
	if m := s.Metrics(); m.PagesScored != 3 || m.CacheHits != 1 || m.CacheMisses != 3 {
		t.Errorf("scored %d, hits %d, misses %d; want 3, 1, 3", m.PagesScored, m.CacheHits, m.CacheMisses)
	}
}

func TestBatchNoDedupWhenCacheDisabled(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) { cfg.Coalescer = coalesce.New(coalesce.Config{MemoEntries: -1}) })
	// Memo off means the operator rejected verdict reuse; identical
	// pages must then each be scored.
	page := PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot}
	var resp BatchResponse
	call(t, s, http.MethodPost, "/v1/score/batch",
		BatchRequest{Pages: []PageRequest{page, page, page}}, &resp)
	if m := s.Metrics(); m.PagesScored != 3 {
		t.Errorf("pages scored = %d, want 3 (cache disabled disables dedup)", m.PagesScored)
	}
}

func TestOversizedBodyRejectedWith413(t *testing.T) {
	s := newServer(t, func(cfg *Config) { cfg.MaxBodyBytes = 256 })
	big := PageRequest{HTML: strings.Repeat("x", 1024), LandingURL: "http://big.test/"}
	var resp errorResponse
	if code := call(t, s, http.MethodPost, "/v1/score", big, &resp); code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", code)
	}

	// The body is read before it is parsed, so size wins over syntax: a
	// body that is both over the limit and malformed from its first byte
	// is a 413 (it was a 400 while the decoder read from the socket and
	// met the syntax error first). Within the limit it stays a 400.
	for _, tc := range []struct {
		body string
		code int
		text string
	}{
		{"not json " + strings.Repeat("x", 1024), http.StatusRequestEntityTooLarge, "request body exceeds 256 bytes"},
		{`{"html":"x","landing_url":"http://a.test/"} ` + strings.Repeat("x", 1024), http.StatusRequestEntityTooLarge, "request body exceeds 256 bytes"},
		{"not json", http.StatusBadRequest, "decoding request: invalid character 'o' in literal null (expecting 'u')"},
	} {
		for _, path := range []string{"/v1/score", "/v2/score", "/v2/score/batch"} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			resp = errorResponse{}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if rec.Code != tc.code || resp.Error != tc.text {
				t.Errorf("%s %.20q: status %d %q, want %d %q", path, tc.body, rec.Code, resp.Error, tc.code, tc.text)
			}
		}
	}
}

func TestTargetEndpoint(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	named, total := 0, 0
	for i, ex := range c.PhishBrand.Examples {
		if i == 20 {
			break
		}
		if ex.NoHint {
			continue
		}
		total++
		var resp TargetResponse
		code := call(t, s, http.MethodPost, "/v1/target", PageRequest{Snapshot: ex.Snapshot}, &resp)
		if code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if resp.Result.Verdict.String() == "" || resp.Result.StepsUsed < 1 {
			t.Fatalf("malformed result: %+v", resp.Result)
		}
		if resp.Result.Verdict == target.VerdictPhish {
			for j, cand := range resp.Result.Candidates {
				if j >= 3 {
					break
				}
				if cand.MLD == ex.TargetMLD {
					named++
					break
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no hinted phish examples")
	}
	if rate := float64(named) / float64(total); rate < 0.5 {
		t.Errorf("target naming rate over HTTP = %.2f, want >= 0.5", rate)
	}
}

func TestHealthz(t *testing.T) {
	s := newServer(t, nil)
	var resp HealthResponse
	if code := call(t, s, http.MethodGet, "/healthz", nil, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Status != "ok" {
		t.Errorf("status = %q", resp.Status)
	}
	if resp.Threshold != core.DefaultThreshold {
		t.Errorf("threshold = %v", resp.Threshold)
	}
	if resp.Workers < 1 {
		t.Errorf("workers = %d", resp.Workers)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	for i := 0; i < 3; i++ {
		var resp ScoreResponse
		call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: c.PhishTest.Examples[i].Snapshot}, &resp)
	}
	var m MetricsSnapshot
	if code := call(t, s, http.MethodGet, "/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if m.Requests < 4 { // 3 scores + the metrics request itself
		t.Errorf("requests = %d, want >= 4", m.Requests)
	}
	if m.PagesScored != 3 {
		t.Errorf("pages scored = %d, want 3", m.PagesScored)
	}
	if m.CacheMisses != 3 {
		t.Errorf("cache misses = %d, want 3", m.CacheMisses)
	}
	if m.LatencyP50US <= 0 || m.LatencyP99US < m.LatencyP50US {
		t.Errorf("latency percentiles implausible: %+v", m)
	}
	if m.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", m.UptimeSeconds)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newServer(t, nil)
	for path, method := range map[string]string{
		"/v1/score":       http.MethodGet,
		"/v1/score/batch": http.MethodGet,
		"/v1/target":      http.MethodDelete,
		"/healthz":        http.MethodPost,
		"/metrics":        http.MethodPost,
	} {
		var resp errorResponse
		if code := call(t, s, method, path, nil, &resp); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", method, path, code)
		}
	}
	if m := s.Metrics(); m.Errors < 5 {
		t.Errorf("errors = %d, want >= 5 (405s must count as errors)", m.Errors)
	}
}

func TestConcurrentScoring(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ex := c.PhishTest.Examples[(w*10+i)%len(c.PhishTest.Examples)]
				var buf bytes.Buffer
				_ = json.NewEncoder(&buf).Encode(PageRequest{Snapshot: ex.Snapshot})
				req := httptest.NewRequest(http.MethodPost, "/v1/score", &buf)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("concurrent score: status %d", rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m := s.Metrics(); m.Requests < 80 {
		t.Errorf("requests = %d, want >= 80", m.Requests)
	}
}
