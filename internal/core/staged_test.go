package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// stagedPages picks one detector positive and one detector negative, so
// both sides of the target-identification branch are exercised.
func stagedPages(t *testing.T, p *Pipeline) map[string]*webpage.Snapshot {
	t.Helper()
	c := corpus(t)
	pick := func(snaps []*webpage.Snapshot, positive bool) *webpage.Snapshot {
		for _, s := range snaps {
			v, err := p.Detector.ScoreCtx(context.Background(), NewScoreRequest(s))
			if err != nil {
				t.Fatal(err)
			}
			if v.DetectorPhish == positive {
				return s
			}
		}
		t.Fatalf("fixture has no page with DetectorPhish=%v", positive)
		return nil
	}
	return map[string]*webpage.Snapshot{
		"phish": pick(c.PhishTest.Snapshots(), true),
		"legit": pick(c.LegTrain.Snapshots(), false),
	}
}

// TestScoreCoalescedMatchesAnalyzeCtx is the differential proof that the
// staged entry point is AnalyzeCtx: for every subset of the two stages a
// caller can supply the verdict is equal apart from Timings, and
// Computed names exactly the stages that had to run.
func TestScoreCoalescedMatchesAnalyzeCtx(t *testing.T) {
	_, p := verdictFixtures(t)
	ctx := context.Background()
	const supS, supT = 1, 2
	options := []struct {
		name string
		opts []ScoreOption
		skip bool
	}{
		{name: "default"},
		{name: "skip_target", opts: []ScoreOption{WithoutTargetID()}, skip: true},
	}
	for page, snap := range stagedPages(t, p) {
		// One cold pass yields both stage results to pre-supply.
		coldV, err := p.AnalyzeCtx(ctx, NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		// A negative has no target result; supplying one anyway must be
		// ignored, not trusted.
		tres := target.Result{Verdict: target.VerdictLegitimate, StepsUsed: 99}
		if coldV.TargetRun {
			tres = coldV.Target
		}
		for _, o := range options {
			req := NewScoreRequest(snap, o.opts...)
			want, err := p.AnalyzeCtx(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			want.Timings = StageTimings{}
			identifies := want.DetectorPhish && !o.skip
			for sup := 0; sup < 4; sup++ {
				var st StageResults
				if sup&supS != 0 {
					st.HasScore, st.Score = true, coldV.Score
				}
				if sup&supT != 0 {
					st.TargetResult = &tres
				}
				got, err := p.AnalyzeStagedCtx(ctx, req, &st)
				if err != nil {
					t.Fatalf("%s/%s/supplied=%02b: %v", page, o.name, sup, err)
				}
				got.Timings = StageTimings{}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/supplied=%02b: staged verdict\n%+v\ndiverges from AnalyzeCtx\n%+v", page, o.name, sup, got, want)
				}

				var need StageMask
				if sup&supS == 0 {
					// The vector feeds classification.
					need |= StageMaskScore | StageMaskFeatures
				}
				if identifies && sup&supT == 0 {
					need |= StageMaskTarget
				}
				// Analysis feeds extraction and identification; before
				// classification any page may still need identifying.
				mayIdentify := !o.skip && sup&supT == 0 && (sup&supS == 0 || want.DetectorPhish)
				if need&StageMaskFeatures != 0 || mayIdentify {
					need |= StageMaskAnalysis
				}
				if st.Computed != need {
					t.Fatalf("%s/%s/supplied=%02b: Computed=%04b, want %04b", page, o.name, sup, st.Computed, need)
				}
			}
		}
	}
}

// TestScoreCoalescedPerItemContext pins that a call whose context has
// expired fails with its own cause before running any stage, and leaves
// the stage results usable by the next call.
func TestScoreCoalescedPerItemContext(t *testing.T) {
	_, p := verdictFixtures(t)
	snap := stagedPages(t, p)["phish"]
	dead, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var st StageResults
	if _, err := p.AnalyzeStagedCtx(dead, NewScoreRequest(snap), &st); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: err = %v, want DeadlineExceeded", err)
	}
	if st.Computed != 0 {
		t.Fatalf("expired call ran stages: %04b", st.Computed)
	}
	v, err := p.AnalyzeStagedCtx(context.Background(), NewScoreRequest(snap), &st)
	if err != nil || v.Label == "" {
		t.Fatalf("healthy call after an expired one: %+v, %v", v.Outcome, err)
	}
}

// TestScoreCoalescedNilIdentifier covers detector-only pipelines: no
// identification, and so no analysis for a supplied positive either.
func TestScoreCoalescedNilIdentifier(t *testing.T) {
	_, p := verdictFixtures(t)
	bare := &Pipeline{Detector: p.Detector}
	ctx := context.Background()
	snap := stagedPages(t, p)["phish"]
	var st StageResults
	v, err := bare.AnalyzeStagedCtx(ctx, NewScoreRequest(snap), &st)
	if err != nil {
		t.Fatal(err)
	}
	if v.TargetRun || !v.FinalPhish {
		t.Fatalf("nil identifier verdict: %+v", v.Outcome)
	}
	warm := StageResults{HasScore: true, Score: v.Score}
	if _, err := bare.AnalyzeStagedCtx(ctx, NewScoreRequest(snap), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Computed != 0 {
		t.Fatalf("supplied positive without an identifier computed %04b", warm.Computed)
	}
}
