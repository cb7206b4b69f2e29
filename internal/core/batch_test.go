package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// batchSnapshots returns a deterministic phish/legit mix for batch tests.
func batchSnapshots(t *testing.T) []*webpage.Snapshot {
	t.Helper()
	c := corpus(t)
	snaps := append([]*webpage.Snapshot(nil), c.PhishTest.Snapshots()...)
	for i, ex := range c.LegTrain.Examples {
		if i == len(snaps) {
			break
		}
		snaps = append(snaps, ex.Snapshot)
	}
	return snaps
}

// requests wraps bare snapshots in default ScoreRequests.
func requests(snaps []*webpage.Snapshot) []ScoreRequest {
	reqs := make([]ScoreRequest, len(snaps))
	for i, s := range snaps {
		reqs[i] = NewScoreRequest(s)
	}
	return reqs
}

func TestScoreBatchMatchesSequential(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	snaps := batchSnapshots(t)

	sequential := make([]float64, len(snaps))
	for i, s := range snaps {
		sequential[i] = refScore(d, s)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
		vs, err := d.ScoreBatchCtx(context.Background(), requests(snaps), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]float64, len(vs))
		for i, v := range vs {
			got[i] = v.Score
		}
		if !reflect.DeepEqual(sequential, got) {
			t.Fatalf("workers=%d: batch scores differ from sequential", workers)
		}
	}
}

func TestAnalyzeBatchMatchesSequential(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	p := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}
	snaps := batchSnapshots(t)

	sequential := make([]Outcome, len(snaps))
	for i, s := range snaps {
		sequential[i] = refOutcome(p, s)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
		vs, err := batchCtx(context.Background(), requests(snaps), workers, p.AnalyzeCtx)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]Outcome, len(vs))
		for i, v := range vs {
			got[i] = v.Outcome
		}
		if !reflect.DeepEqual(sequential, got) {
			t.Fatalf("workers=%d: batch outcomes differ from sequential", workers)
		}
	}
}

func TestBatchEmptyAndEdge(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	if got, err := d.ScoreBatchCtx(context.Background(), nil, 4); err != nil || len(got) != 0 {
		t.Errorf("empty ScoreBatchCtx: got %v, err %v", got, err)
	}
	// More workers than items must not deadlock or skip entries.
	reqs := requests(batchSnapshots(t)[:3])
	got, err := d.ScoreBatchCtx(context.Background(), reqs, 64)
	if err != nil || len(got) != 3 {
		t.Fatalf("3-item batch with 64 workers: %d results, err %v", len(got), err)
	}
	for i, v := range got {
		if v == nil {
			t.Errorf("3-item batch with 64 workers: result %d skipped", i)
		}
	}
}
