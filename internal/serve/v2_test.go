package serve

import (
	"math"
	"net/http"
	"testing"

	"knowphish/internal/core"
)

func TestScoreV2MatchesV1AndAddsEnvelope(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	for i, ex := range c.PhishTest.Examples {
		if i == 10 {
			break
		}
		var v1 ScoreResponse
		var v2 V2ScoreResponse
		// Cache disabled per-pair comparison: fresh server each loop
		// would be slow; instead order v2-then-v1 and accept the cached
		// flag difference, comparing the verdict fields only.
		if code := call(t, s, http.MethodPost, "/v2/score",
			V2ScoreRequest{PageRequest: PageRequest{Snapshot: ex.Snapshot}}, &v2); code != http.StatusOK {
			t.Fatalf("v2 status = %d", code)
		}
		call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: ex.Snapshot}, &v1)
		if v2.Score != v1.Score || v2.FinalPhish != v1.FinalPhish {
			t.Fatalf("v2 verdict %+v diverges from v1 %+v", v2.Outcome, v1.Outcome)
		}
		wantLabel := core.LabelLegitimate
		if v2.FinalPhish {
			wantLabel = core.LabelPhishing
		}
		if v2.Label != wantLabel || v2.Threshold != core.DefaultThreshold {
			t.Errorf("envelope: label=%q threshold=%v", v2.Label, v2.Threshold)
		}
		if v2.Cached {
			t.Error("first v2 score served from cache")
		}
		if v2.Timings.TotalNS <= 0 {
			t.Errorf("fresh verdict missing timings: %+v", v2.Timings)
		}
	}
}

func TestScoreV2Explain(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := c.PhishTest.Examples[0].Snapshot

	// Warm the cache with a plain request …
	var plain V2ScoreResponse
	call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: PageRequest{Snapshot: snap}}, &plain)
	if plain.Explanation != nil {
		t.Fatal("explanation attached without explain option")
	}

	// … then an explain request must bypass it and carry evidence.
	var explained V2ScoreResponse
	code := call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
		PageRequest:  PageRequest{Snapshot: snap},
		ScoreOptions: ScoreOptions{Explain: "top", TopFeatures: 5},
	}, &explained)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if explained.Cached {
		t.Error("explain request served from the evidence-free cache")
	}
	if explained.Explanation == nil || len(explained.Explanation.Contributions) == 0 {
		t.Fatal("no evidence on an explain request")
	}
	if len(explained.Explanation.Contributions) > 5 {
		t.Errorf("top_features=5 returned %d contributions", len(explained.Explanation.Contributions))
	}
	if explained.Score != plain.Score {
		t.Errorf("explained score %v differs from plain score %v", explained.Score, plain.Score)
	}
	for _, ctr := range explained.Explanation.Contributions {
		if ctr.Name == "" {
			t.Errorf("contribution without a feature name: %+v", ctr)
		}
	}

	// A full explanation reassembles the score exactly.
	var full V2ScoreResponse
	call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
		PageRequest:  PageRequest{Snapshot: snap},
		ScoreOptions: ScoreOptions{Explain: "full"},
	}, &full)
	sum := full.Explanation.Bias
	for _, ctr := range full.Explanation.Contributions {
		sum += ctr.LogOdds
	}
	if got := 1 / (1 + math.Exp(-sum)); math.Abs(got-full.Score) > 1e-9 {
		t.Errorf("sigmoid(bias+Σ) = %v, score = %v", got, full.Score)
	}
}

func TestScoreV2CachedSecondCall(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := c.PhishTest.Examples[0].Snapshot
	var first, second V2ScoreResponse
	call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: PageRequest{Snapshot: snap}}, &first)
	call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: PageRequest{Snapshot: snap}}, &second)
	if !second.Cached {
		t.Error("second v2 score not served from cache")
	}
	if second.Score != first.Score || second.Label != first.Label {
		t.Error("cached verdict differs from computed verdict")
	}
	if second.Timings.TotalNS != 0 {
		t.Error("cached verdict claims fresh timings")
	}
}

func TestScoreV2BadOptions(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	snap := c.PhishTest.Examples[0].Snapshot
	for name, body := range map[string]V2ScoreRequest{
		"bad_explain":  {PageRequest: PageRequest{Snapshot: snap}, ScoreOptions: ScoreOptions{Explain: "everything"}},
		"neg_deadline": {PageRequest: PageRequest{Snapshot: snap}, ScoreOptions: ScoreOptions{DeadlineMS: -5}},
		"neg_top":      {PageRequest: PageRequest{Snapshot: snap}, ScoreOptions: ScoreOptions{TopFeatures: -1}},
	} {
		var resp errorResponse
		if code := call(t, s, http.MethodPost, "/v2/score", body, &resp); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
}

func TestScoreV2SkipTarget(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	// Find a detector positive and confirm skip_target suppresses the
	// identification stage end to end.
	for i, ex := range c.PhishTest.Examples {
		if i == 30 {
			break
		}
		var full V2ScoreResponse
		call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{PageRequest: PageRequest{Snapshot: ex.Snapshot}}, &full)
		if !full.DetectorPhish {
			continue
		}
		var skipped V2ScoreResponse
		call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
			PageRequest:  PageRequest{Snapshot: ex.Snapshot},
			ScoreOptions: ScoreOptions{SkipTarget: true},
		}, &skipped)
		if skipped.TargetRun || skipped.Timings.TargetNS != 0 {
			t.Fatalf("skip_target ran identification: %+v", skipped)
		}
		if !skipped.FinalPhish {
			t.Error("skip_target verdict lost the raw detector call")
		}
		return
	}
	t.Skip("no detector positive in the first 30 test pages")
}

// TestSkipTargetDoesNotPoisonCache: a skip_target verdict is partial
// (no FP-removal pass) and must not become the cached canonical outcome
// a later full request — v1 or v2 — gets served. Found live: a v2
// skip_target warm-up downgraded subsequent v1 responses to
// target_run=false. With one memo it holds by construction: the score
// and the target result live in separate tables, and a full request is
// only a hit when both are there.
func TestSkipTargetDoesNotPoisonCache(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	// Find a detector positive so the target stage actually matters.
	for i, ex := range c.PhishTest.Examples {
		if i == 30 {
			break
		}
		var probe V2ScoreResponse
		call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
			PageRequest:  PageRequest{Snapshot: ex.Snapshot},
			ScoreOptions: ScoreOptions{SkipTarget: true},
		}, &probe)
		if !probe.DetectorPhish {
			continue
		}
		// The partial verdict must not have been cached: the full v1
		// request recomputes and runs identification.
		var full ScoreResponse
		call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: ex.Snapshot}, &full)
		if full.Cached {
			t.Fatal("v1 request served the partial skip_target verdict from cache")
		}
		if !full.TargetRun {
			t.Fatal("v1 request lost the target-identification pass")
		}
		// A skip_target reader of the now fully scored page gets what it
		// asked for, from the score memo alone ...
		var again V2ScoreResponse
		call(t, s, http.MethodPost, "/v2/score", V2ScoreRequest{
			PageRequest:  PageRequest{Snapshot: ex.Snapshot},
			ScoreOptions: ScoreOptions{SkipTarget: true},
		}, &again)
		if !again.Cached || again.TargetRun || again.Score != full.Score {
			t.Errorf("skip_target reader: cached=%v target_run=%v score=%v; want a score-only hit of %v",
				again.Cached, again.TargetRun, again.Score, full.Score)
		}
		// ... and the full verdict is a hit for full readers.
		var fullAgain ScoreResponse
		call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: ex.Snapshot}, &fullAgain)
		if !fullAgain.Cached || !fullAgain.TargetRun {
			t.Errorf("full reader: cached=%v target_run=%v; want a hit with the target result", fullAgain.Cached, fullAgain.TargetRun)
		}
		return
	}
	t.Skip("no detector positive in the first 30 test pages")
}

func TestTargetV2(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, nil)
	var v1 TargetResponse
	var v2 V2TargetResponse
	snap := c.PhishBrand.Examples[0].Snapshot
	call(t, s, http.MethodPost, "/v1/target", PageRequest{Snapshot: snap}, &v1)
	if code := call(t, s, http.MethodPost, "/v2/target",
		V2ScoreRequest{PageRequest: PageRequest{Snapshot: snap}}, &v2); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if v2.Result.Verdict != v1.Result.Verdict || v2.Result.StepsUsed != v1.Result.StepsUsed {
		t.Errorf("v2 target result diverges from v1: %+v vs %+v", v2.Result, v1.Result)
	}
	if v2.LandingURL != snap.LandingURL {
		t.Errorf("landing url %q", v2.LandingURL)
	}
}

// TestBatchOverLimitRejectedAndCounted pins the satellite bugfix: an
// over-limit batch answers 413 with a JSON error body AND the rejection
// is observable at /metrics.
func TestBatchOverLimitRejectedAndCounted(t *testing.T) {
	s := newServer(t, nil)
	over := BatchRequest{Pages: overLimitPages()}
	var resp errorResponse
	if code := call(t, s, http.MethodPost, "/v1/score/batch", over, &resp); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", code)
	}
	if resp.Error == "" {
		t.Error("413 without a JSON error body")
	}
	if m := s.Metrics(); m.BatchRejected != 1 {
		t.Errorf("batch_rejected = %d, want 1", m.BatchRejected)
	}
	if m := s.Metrics(); m.PagesScored != 0 {
		t.Errorf("rejected batch scored %d pages", m.PagesScored)
	}
}
