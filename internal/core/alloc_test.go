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
// steady state Analyze refills a pooled one, dictionary included;
// urlx.Parse cuts every part from the URL it is given, so the page's
// 31 links add nothing. The fixture page measures 0 (1 while the
// page's distinct terms were copied into a string of their own, 9
// while every call kept a fresh analysis, 174 while urlx split and
// joined labels, about 1040 before the map-free term kernel); the
// margin absorbs a pool emptied by a GC during the run, not code
// growth.
const fullPathAllocBudget = 3

// TestScoreCtxWarmPathZeroAllocs pins a cold score of a legitimate
// page at zero allocations for an all-features detector: once its pools
// are warm, a ScoreCtx allocates nothing, and neither do
// webpage.Analyze and Release on the same page.
func TestScoreCtxWarmPathZeroAllocs(t *testing.T) {
	assertScoreCtxAllocsAreAnalysis(t, 0)
}

// TestScoreCtxProjectedWarmPathZeroAllocs is the same contract for a
// column-projected (F15) detector, pinning projection at zero too.
func TestScoreCtxProjectedWarmPathZeroAllocs(t *testing.T) {
	assertScoreCtxAllocsAreAnalysis(t, features.F15)
}

func assertScoreCtxAllocsAreAnalysis(t *testing.T, set features.Set) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	snap := c.LangTests[webgen.English].Snapshots()[0]
	ctx := context.Background()
	d := trainDetector(t, c, set)
	req := NewScoreRequest(snap)
	score := func() {
		if _, err := d.ScoreCtx(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	score() // warm pools + flat layout
	analysis := testing.AllocsPerRun(200, func() { webpage.Analyze(snap).Release() })
	if got := testing.AllocsPerRun(200, score); got != 0 || analysis != 0 {
		t.Fatalf("ScoreCtx allocated %.0f times per run, Analyze + Release %.0f; want 0 and 0", got, analysis)
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

// TestHoistedOptionsAllocContract pins the contract the serving layer
// relies on when it builds a request per call: a request, option-free
// or carrying any set of options, builds on the stack (zero
// allocations). The name is kept from when a server hoisted option
// closures whose application cost the request one heap escape; a
// request's options are now a plain value, so no shape pays it.
func TestHoistedOptionsAllocContract(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	snap := c.LangTests[webgen.English].Snapshots()[0]
	if allocs := testing.AllocsPerRun(200, func() {
		req := NewScoreRequest(snap)
		if req.Snapshot == nil {
			t.Fatal("request lost its snapshot")
		}
	}); allocs != 0 {
		t.Fatalf("option-free NewScoreRequest allocated %.1f times per run, want 0", allocs)
	}
	for _, opts := range []Options{
		{Deadline: time.Second},
		{Deadline: time.Second, Explain: ExplainTop, TopFeatures: 4},
		{Explain: ExplainFull, SkipTarget: true},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			req := NewScoreRequest(snap)
			req.Options = opts
			if req.Snapshot == nil || req.Options != opts {
				t.Fatal("request lost its snapshot or options")
			}
		}); allocs != 0 {
			t.Fatalf("request with options %+v allocated %.1f times per run, want 0", opts, allocs)
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
