package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"knowphish/internal/features"
	"knowphish/internal/racecheck"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// fullPathAllocBudget bounds the allocations of one cold ScoreCtx call
// (webpage.Analyze + extraction + classification) on the corpus's legit
// fixture page. The call releases the analysis it computed, so in
// steady state Analyze refills a pooled one and what is left is the
// string behind the page's distinct terms; urlx.Parse cuts every part
// from the URL it is given, so the page's 31 links add nothing. The
// fixture page measures 1 (9 while every call kept a fresh analysis,
// 174 while urlx split and joined labels, about 1040 before the
// map-free term kernel); the margin absorbs a pool emptied by a GC
// during the run, not code growth.
const fullPathAllocBudget = 3

func TestScoreCtxWarmPathZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	d := trainDetector(t, c, 0)
	snap := c.LangTests[webgen.English].Snapshots()[0]
	a := webpage.Analyze(snap)
	req := NewScoreRequest(snap, WithAnalysis(a))
	ctx := context.Background()
	if _, err := d.ScoreCtx(ctx, req); err != nil { // warm pools + flat layout
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		v, err := d.ScoreCtx(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if v.Score < 0 || v.Score > 1 {
			t.Fatal("score out of range")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ScoreCtx allocated %.1f times per run, want 0", allocs)
	}
}

func TestScoreCtxProjectedWarmPathZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	d := trainDetector(t, c, features.F15) // column-projected detector
	snap := c.LangTests[webgen.English].Snapshots()[0]
	a := webpage.Analyze(snap)
	req := NewScoreRequest(snap, WithAnalysis(a))
	ctx := context.Background()
	if _, err := d.ScoreCtx(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.ScoreCtx(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm projected ScoreCtx allocated %.1f times per run, want 0", allocs)
	}
}

func TestScoreCtxFullPathAllocBudget(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	d := trainDetector(t, c, 0)
	snap := c.LangTests[webgen.English].Snapshots()[0]
	req := NewScoreRequest(snap)
	ctx := context.Background()
	if _, err := d.ScoreCtx(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.ScoreCtx(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > fullPathAllocBudget {
		t.Fatalf("full ScoreCtx path allocated %.0f times per run, budget %d", allocs, fullPathAllocBudget)
	}
	t.Logf("full-extraction path: %.0f allocs/op (budget %d)", allocs, fullPathAllocBudget)
}

// TestHoistedOptionsAllocContract pins the contract the serving
// layer's option hoist relies on. An option-free request — no options,
// or an empty hoisted slice, what a server without a default deadline
// hoists — builds on the stack (zero allocations). Applying a non-empty
// precomputed option slice costs exactly one allocation — the request
// materializing on the heap because its address flows into the option
// closures — independent of option count; the slice and the closures
// themselves were paid for once at hoist time, never per request.
func TestHoistedOptionsAllocContract(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	snap := c.LangTests[webgen.English].Snapshots()[0]
	var none []ScoreOption
	if allocs := testing.AllocsPerRun(200, func() {
		req := NewScoreRequest(snap, none...)
		if req.Snapshot == nil {
			t.Fatal("request lost its snapshot")
		}
	}); allocs != 0 {
		t.Fatalf("option-free NewScoreRequest allocated %.1f times per run, want 0", allocs)
	}
	for _, hoisted := range [][]ScoreOption{
		{WithDeadline(time.Second)},
		{WithDeadline(time.Second), WithExplain(ExplainTop), WithTopFeatures(4)},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			req := NewScoreRequest(snap, hoisted...)
			if req.Snapshot == nil {
				t.Fatal("request lost its snapshot")
			}
		}); allocs != 1 {
			t.Fatalf("applying a hoisted %d-option slice allocated %.1f times per run, want exactly 1 (the request escape)", len(hoisted), allocs)
		}
	}
}

// TestScoreCoalescedWarmPathZeroAllocs pins the memo's warm steady
// state: with the score (and, for a positive, the target result)
// supplied, a staged pass analyses nothing and must not touch the
// allocator.
func TestScoreCoalescedWarmPathZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	d := trainDetector(t, c, 0)
	pipe := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	ctx := context.Background()
	for _, snap := range []*webpage.Snapshot{c.LangTests[webgen.English].Snapshots()[0], c.PhishTest.Snapshots()[0]} {
		req := NewScoreRequest(snap)
		cold, err := pipe.AnalyzeCtx(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		tres := &cold.Target
		if !cold.TargetRun {
			tres = nil
		}
		allocs := testing.AllocsPerRun(200, func() {
			st := StageResults{HasScore: true, Score: cold.Score, TargetResult: tres}
			v, err := pipe.AnalyzeStagedCtx(ctx, req, &st)
			if err != nil || v.Score != cold.Score || v.FinalPhish != cold.FinalPhish || st.Computed != 0 {
				t.Fatal("warm staged verdict diverged")
			}
		})
		if allocs != 0 {
			t.Fatalf("warm staged pass (target run: %v) allocated %.1f times per run, want 0", cold.TargetRun, allocs)
		}
	}
}

// TestWithAnalysisMatchesColdPath pins that the cached-page path is a
// pure shortcut: same verdict, same score, bit for bit.
func TestWithAnalysisMatchesColdPath(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	pipe := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	ctx := context.Background()
	snaps := append(append([]*webpage.Snapshot{}, c.LangTests[webgen.English].Snapshots()[:8]...), c.PhishTest.Snapshots()[:8]...)
	for i, snap := range snaps {
		cold, err := pipe.AnalyzeCtx(ctx, NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := pipe.AnalyzeCtx(ctx, NewScoreRequest(snap, WithAnalysis(webpage.Analyze(snap))))
		if err != nil {
			t.Fatal(err)
		}
		if warm.Score != cold.Score || warm.FinalPhish != cold.FinalPhish || warm.Label != cold.Label {
			t.Fatalf("snap %d: warm verdict (%v, %v) != cold (%v, %v)",
				i, warm.Score, warm.FinalPhish, cold.Score, cold.FinalPhish)
		}
		if warm.Timings.AnalyzeNS != 0 {
			t.Fatalf("snap %d: warm path reports AnalyzeNS %d, want 0 (stage skipped)", i, warm.Timings.AnalyzeNS)
		}
	}
	// An analysis-only request (no snapshot) scores via a.Snap.
	a := webpage.Analyze(snaps[0])
	v, err := d.ScoreCtx(ctx, NewScoreRequest(nil, WithAnalysis(a)))
	if err != nil {
		t.Fatalf("analysis-only request: %v", err)
	}
	want, err := d.ScoreCtx(ctx, NewScoreRequest(snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	if v.Score != want.Score {
		t.Fatalf("analysis-only score %v != snapshot score %v", v.Score, want.Score)
	}
}

// TestPooledVectorsNotSharedAcrossBatches hammers concurrent
// full-pipeline batches (batchCtx over AnalyzeCtx, the fan-out behind
// ScoreBatchCtx) over the same pipeline and verifies every
// verdict matches its sequentially computed expectation — the contract
// that pooled vectors and extraction scratch are never shared between
// in-flight scorings. Run with -race, this is the allocation tentpole's
// safety net.
func TestPooledVectorsNotSharedAcrossBatches(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	pipe := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	ctx := context.Background()

	snaps := append(append([]*webpage.Snapshot{}, c.LangTests[webgen.English].Snapshots()[:12]...), c.PhishTest.Snapshots()[:12]...)
	want := make([]float64, len(snaps))
	reqs := make([]ScoreRequest, len(snaps))
	for i, snap := range snaps {
		reqs[i] = NewScoreRequest(snap)
		v, err := pipe.AnalyzeCtx(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v.Score
	}

	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				vs, err := batchCtx(ctx, reqs, 4, pipe.AnalyzeCtx)
				if err != nil {
					errs <- err
					return
				}
				for i, v := range vs {
					if v == nil {
						errs <- fmt.Errorf("item %d: nil verdict without batch error", i)
						return
					}
					if v.Score != want[i] {
						errs <- fmt.Errorf("item %d: concurrent score %v != sequential %v (pooled buffer shared?)",
							i, v.Score, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
