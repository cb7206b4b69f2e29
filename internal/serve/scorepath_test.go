package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// pageResult is what every scoring endpoint says about one page, read
// out of that endpoint's own response document. The v1 documents carry
// no label or fingerprint (frozen wire); err is the
// request-level error body or the stream's per-item error.
type pageResult struct {
	score           float64
	phish, cached   bool
	label, fp       string
	err             string
	status          int
	retryAfterIsSet bool
}

// scoringEndpoints lists the five scoring endpoints with how to ask each
// about one page and how to read its answer.
var scoringEndpoints = []struct {
	path string
	v2   bool
	body func(PageRequest) any
	read func(*testing.T, []byte, *pageResult)
}{
	{"/v1/score", false,
		func(p PageRequest) any { return p },
		func(t *testing.T, b []byte, r *pageResult) {
			var d ScoreResponse
			mustUnmarshal(t, b, &d)
			r.score, r.phish, r.cached = d.Score, d.FinalPhish, d.Cached
		}},
	{"/v1/score/batch", false,
		func(p PageRequest) any { return BatchRequest{Pages: []PageRequest{p}} },
		func(t *testing.T, b []byte, r *pageResult) {
			var d BatchResponse
			mustUnmarshal(t, b, &d)
			if len(d.Results) != 1 {
				t.Fatalf("batch returned %d results, want 1", len(d.Results))
			}
			r.score, r.phish, r.cached = d.Results[0].Score, d.Results[0].FinalPhish, d.Results[0].Cached
		}},
	{"/v2/score", true,
		func(p PageRequest) any { return V2ScoreRequest{PageRequest: p} },
		func(t *testing.T, b []byte, r *pageResult) {
			var d V2ScoreResponse
			mustUnmarshal(t, b, &d)
			r.fromV2(&d)
		}},
	{"/v2/score/batch", true,
		func(p PageRequest) any { return V2BatchRequest{Pages: []PageRequest{p}} },
		func(t *testing.T, b []byte, r *pageResult) {
			var d V2BatchResponse
			mustUnmarshal(t, b, &d)
			if len(d.Results) != 1 {
				t.Fatalf("batch returned %d results, want 1", len(d.Results))
			}
			r.fromV2(&d.Results[0])
		}},
	{"/v2/score/stream", true,
		// One request document on one line is a one-item NDJSON stream.
		func(p PageRequest) any { return V2ScoreRequest{PageRequest: p} },
		func(t *testing.T, b []byte, r *pageResult) {
			var d V2StreamResult
			mustUnmarshal(t, bytes.TrimSpace(b), &d)
			if r.err = d.Error; d.V2ScoreResponse != nil {
				r.fromV2(d.V2ScoreResponse)
			}
		}},
}

func (r *pageResult) fromV2(d *V2ScoreResponse) {
	r.score, r.phish, r.cached = d.Score, d.FinalPhish, d.Cached
	r.label, r.fp = d.Label, d.ContentFingerprint
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
}

// askEndpoint sends one page to scoringEndpoints[i] and reads the answer.
func askEndpoint(t *testing.T, s *Server, i int, p PageRequest) pageResult {
	t.Helper()
	ep := scoringEndpoints[i]
	rec := rawCall(t, s, http.MethodPost, ep.path, ep.body(p), nil)
	r := pageResult{status: rec.Code, retryAfterIsSet: rec.Header().Get("Retry-After") != ""}
	if rec.Code == http.StatusOK {
		ep.read(t, rec.Body.Bytes(), &r)
		return r
	}
	var e errorResponse
	mustUnmarshal(t, rec.Body.Bytes(), &e)
	r.err = e.Error
	return r
}

// trainSmall fits a quick detector of its own, apart from the shared
// fixture's.
func trainSmall(t *testing.T, seed int64) *core.Detector {
	t.Helper()
	c, _ := fixtures(t)
	snaps := append(c.LegTrain.Snapshots(), c.PhishTrain.Snapshots()...)
	labels := append(c.LegTrain.Labels(), c.PhishTrain.Labels()...)
	d, err := core.Train(snaps, labels, core.TrainConfig{
		Rank: c.World.Ranking(),
		GBM:  ml.GBMConfig{Trees: 15, MaxDepth: 3, Seed: seed},
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return d
}

// TestEveryEndpointSameVerdict sends the same phishing page and the
// same legitimate page through all five scoring endpoints, each on a
// fresh server: the verdict is the same one everywhere, the first pass
// computes it and the second is a cache hit.
func TestEveryEndpointSameVerdict(t *testing.T) {
	c, _ := fixtures(t)
	det := trainSmall(t, 21)
	pipe := &core.Pipeline{Detector: det, Identifier: target.New(c.Engine)}
	pick := func(exs []*dataset.Example, phish bool) *webpage.Snapshot {
		for _, ex := range exs {
			if v, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(ex.Snapshot)); err == nil && v.FinalPhish == phish {
				return ex.Snapshot
			}
		}
		t.Fatalf("no fixture page with final_phish=%v", phish)
		return nil
	}
	for name, snap := range map[string]*webpage.Snapshot{
		"phish": pick(c.PhishTest.Examples, true),
		"legit": pick(c.LegTrain.Examples, false),
	} {
		var want pageResult
		for i, ep := range scoringEndpoints {
			s := newServer(t, func(cfg *Config) { cfg.Detector = det })
			first := askEndpoint(t, s, i, PageRequest{Snapshot: snap})
			second := askEndpoint(t, s, i, PageRequest{Snapshot: snap})
			if first.status != http.StatusOK || first.err != "" || first.cached {
				t.Fatalf("%s %s first pass: %+v, want a computed 200", name, ep.path, first)
			}
			if !second.cached {
				t.Errorf("%s %s second pass: not a cache hit", name, ep.path)
			}
			second.cached = false
			if second != first {
				t.Errorf("%s %s: second pass %+v differs from first %+v", name, ep.path, second, first)
			}
			if i == 0 {
				want = first
				if want.phish != (name == "phish") {
					t.Fatalf("%s page served as final_phish=%v", name, want.phish)
				}
			}
			if first.score != want.score || first.phish != want.phish {
				t.Errorf("%s %s: score %v phish %v, /v1/score said %v %v", name, ep.path, first.score, first.phish, want.score, want.phish)
			}
			if !ep.v2 {
				continue
			}
			wantLabel := "legitimate"
			if want.phish {
				wantLabel = "phishing"
			}
			if first.label != wantLabel || first.fp != webpage.Fingerprint(snap) {
				t.Errorf("%s %s: label %q fingerprint %q, want %q %q",
					name, ep.path, first.label, first.fp, wantLabel, webpage.Fingerprint(snap))
			}
		}
	}
}

// TestEveryEndpointSameErrors pins the score path's error mapping on all
// five endpoints: an unresolvable page is the client's error, an expired
// budget a 504, shed work a 503 with Retry-After — the stream reports
// the per-item ones on its result line instead of ending.
func TestEveryEndpointSameErrors(t *testing.T) {
	c, _ := fixtures(t)
	good := PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot}
	const noURL = "html requests need starting_url or landing_url"
	const expired = "scoring deadline exceeded"

	plain := newServer(t, nil)
	hurried := newServer(t, func(cfg *Config) { cfg.DefaultDeadline = time.Nanosecond })
	shedding, eng, _ := sloServer(t, newSLOClock(), "score:avail>99")
	drive(eng, "score", 100, true)
	eng.Tick()

	for i, ep := range scoringEndpoints {
		stream := ep.path == "/v2/score/stream"
		batch := ep.path == "/v1/score/batch" || ep.path == "/v2/score/batch"

		bad := askEndpoint(t, plain, i, PageRequest{HTML: "<p>no url</p>"})
		wantStatus, wantErr := http.StatusBadRequest, noURL
		if batch {
			wantErr = "page 0: " + noURL
		}
		if stream {
			wantStatus = http.StatusOK
		}
		if bad.status != wantStatus || bad.err != wantErr {
			t.Errorf("%s bad page: status %d error %q, want %d %q", ep.path, bad.status, bad.err, wantStatus, wantErr)
		}

		late := askEndpoint(t, hurried, i, good)
		wantStatus = http.StatusGatewayTimeout
		if stream {
			wantStatus = http.StatusOK
		}
		if late.status != wantStatus || late.err != expired {
			t.Errorf("%s expired deadline: status %d error %q, want %d %q", ep.path, late.status, late.err, wantStatus, expired)
		}

		shed := askEndpoint(t, shedding, i, good)
		if shed.status != http.StatusServiceUnavailable || !shed.retryAfterIsSet {
			t.Errorf("%s under shedding: status %d retry-after set %v, want 503 with Retry-After", ep.path, shed.status, shed.retryAfterIsSet)
		}
	}
	if m := hurried.Metrics(); m.PagesScored != 0 {
		t.Errorf("expired deadlines still scored %d pages", m.PagesScored)
	}

	// Work shed after it won a worker slot takes the same 503.
	rec := httptest.NewRecorder()
	plain.failScore(rec, errShed)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("queued shed: status %d retry-after %q, want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if m := plain.Metrics(); m.Shed.Queued != 1 {
		t.Errorf("shed.queued = %d, want 1", m.Shed.Queued)
	}
}
