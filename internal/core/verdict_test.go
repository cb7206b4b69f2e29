package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"knowphish/internal/dataset"
	"knowphish/internal/features"
	"knowphish/internal/target"
)

// sigmoid mirrors the ml package's squashing for explanation checks.
func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// sharedVerdictPipe is trained once; detector training dominates the
// package's test time.
var sharedVerdictPipe *Pipeline

func verdictFixtures(t *testing.T) (*dataset.Corpus, *Pipeline) {
	t.Helper()
	c := corpus(t)
	if sharedVerdictPipe == nil {
		d := trainDetector(t, c, features.All)
		sharedVerdictPipe = &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	}
	return c, sharedVerdictPipe
}

func TestAnalyzeCtxMatchesAnalyze(t *testing.T) {
	c, p := verdictFixtures(t)
	for i, ex := range c.PhishTest.Examples {
		if i == 25 {
			break
		}
		want := refOutcome(p, ex.Snapshot)
		v, err := p.AnalyzeCtx(context.Background(), NewScoreRequest(ex.Snapshot))
		if err != nil {
			t.Fatalf("AnalyzeCtx: %v", err)
		}
		if !reflect.DeepEqual(v.Outcome, want) {
			t.Fatalf("verdict %+v diverges from the reference outcome %+v", v.Outcome, want)
		}
		wantLabel := LabelLegitimate
		if want.FinalPhish {
			wantLabel = LabelPhishing
		}
		if v.Label != wantLabel {
			t.Errorf("label = %q, want %q", v.Label, wantLabel)
		}
		if v.Threshold != p.Detector.Threshold() {
			t.Errorf("threshold = %v", v.Threshold)
		}
		if v.Explanation != nil {
			t.Error("explanation attached without WithExplain")
		}
		if v.Timings.TotalNS <= 0 {
			t.Errorf("timings missing: %+v", v.Timings)
		}
	}
}

func TestScoreCtxExplanationReassemblesScore(t *testing.T) {
	c, p := verdictFixtures(t)
	explained := 0
	for i, ex := range c.PhishTest.Examples {
		if i == 10 {
			break
		}
		v, err := p.Detector.ScoreCtx(context.Background(), NewScoreRequest(ex.Snapshot, WithExplain(ExplainFull)))
		if err != nil {
			t.Fatalf("ScoreCtx: %v", err)
		}
		if v.Explanation == nil {
			t.Fatal("no explanation on an explain request")
		}
		sum := v.Explanation.Bias
		for _, ctr := range v.Explanation.Contributions {
			sum += ctr.LogOdds
		}
		if got := sigmoid(sum); math.Abs(got-v.Score) > 1e-9 {
			t.Fatalf("sigmoid(bias+Σ) = %v, score = %v", got, v.Score)
		}
		if len(v.Explanation.Contributions) > 0 {
			explained++
			first := v.Explanation.Contributions[0]
			if first.Name == "" {
				t.Errorf("top contribution has no feature name: %+v", first)
			}
			for j := 1; j < len(v.Explanation.Contributions); j++ {
				a := math.Abs(v.Explanation.Contributions[j-1].LogOdds)
				b := math.Abs(v.Explanation.Contributions[j].LogOdds)
				if b > a {
					t.Fatal("contributions not sorted by |log-odds|")
				}
			}
		}
		if v.Timings.ExplainNS <= 0 {
			t.Error("explain stage not timed")
		}
	}
	if explained == 0 {
		t.Fatal("no page produced any contribution")
	}
}

func TestScoreCtxExplainTopCapsCount(t *testing.T) {
	c, p := verdictFixtures(t)
	snap := c.PhishTest.Examples[0].Snapshot
	v, err := p.Detector.ScoreCtx(context.Background(),
		NewScoreRequest(snap, WithExplain(ExplainTop), WithTopFeatures(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Explanation.Contributions) > 3 {
		t.Errorf("top-3 request returned %d contributions", len(v.Explanation.Contributions))
	}
	// Default cap applies when none is given.
	v, err = p.Detector.ScoreCtx(context.Background(), NewScoreRequest(snap, WithExplain(ExplainTop)))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Explanation.Contributions) > DefaultTopFeatures {
		t.Errorf("default top request returned %d contributions", len(v.Explanation.Contributions))
	}
}

func TestAnalyzeCtxSkipTarget(t *testing.T) {
	c, p := verdictFixtures(t)
	// Find a detector-positive page; skipping target identification must
	// leave the raw detector call in place and never run step V.
	for i, ex := range c.PhishTest.Examples {
		if i == 40 {
			break
		}
		full, err := p.AnalyzeCtx(context.Background(), NewScoreRequest(ex.Snapshot))
		if err != nil {
			t.Fatal(err)
		}
		if !full.DetectorPhish {
			continue
		}
		skip, err := p.AnalyzeCtx(context.Background(), NewScoreRequest(ex.Snapshot, WithoutTargetID()))
		if err != nil {
			t.Fatal(err)
		}
		if skip.TargetRun {
			t.Fatal("target identification ran despite WithoutTargetID")
		}
		if !skip.FinalPhish || skip.Timings.TargetNS != 0 {
			t.Fatalf("skip-target verdict malformed: %+v", skip)
		}
		return
	}
	t.Skip("no detector positive in the first 40 test pages")
}

func TestScoreCtxCancellation(t *testing.T) {
	c, p := verdictFixtures(t)
	snap := c.PhishTest.Examples[0].Snapshot

	cause := errors.New("caller gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if _, err := p.AnalyzeCtx(ctx, NewScoreRequest(snap)); !errors.Is(err, cause) {
		t.Errorf("pre-cancelled ctx: err = %v, want %v", err, cause)
	}

	// An already-expired per-request deadline surfaces as
	// context.DeadlineExceeded.
	if _, err := p.AnalyzeCtx(context.Background(),
		NewScoreRequest(snap, WithDeadline(time.Nanosecond))); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want DeadlineExceeded", err)
	}

	if _, err := p.AnalyzeCtx(context.Background(), ScoreRequest{}); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("empty request: err = %v, want ErrNoSnapshot", err)
	}
}

func TestAnalyzeBatchCtxPartialResults(t *testing.T) {
	c, p := verdictFixtures(t)
	reqs := make([]ScoreRequest, 0, 64)
	for i := 0; i < 64; i++ {
		reqs = append(reqs, NewScoreRequest(c.PhishTest.Examples[i%len(c.PhishTest.Examples)].Snapshot))
	}

	// Uncancelled: every slot fills, order preserved, no error.
	vs, err := batchCtx(context.Background(), reqs, 4, p.AnalyzeCtx)
	if err != nil {
		t.Fatalf("batchCtx: %v", err)
	}
	if len(vs) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(vs), len(reqs))
	}
	for i, v := range vs {
		if v == nil {
			t.Fatalf("result %d missing without cancellation", i)
		}
		if want := refScore(p.Detector, reqs[i].Snapshot); v.Score != want {
			t.Fatalf("result %d: score %v, want %v", i, v.Score, want)
		}
	}

	// Pre-cancelled: the slice keeps its shape (all-nil partial set) and
	// the error is the cancellation cause.
	cause := errors.New("shed load")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	vs2, err := batchCtx(ctx, reqs, 2, p.AnalyzeCtx)
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if len(vs2) != len(reqs) {
		t.Fatalf("cancelled batch returned %d slots, want %d", len(vs2), len(reqs))
	}
	nonNil := 0
	for _, v := range vs2 {
		if v != nil {
			nonNil++
		}
	}
	if nonNil == len(reqs) {
		t.Error("pre-cancelled batch reports every result, expected a partial set")
	}
}
