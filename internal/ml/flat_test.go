package ml

import (
	"math"
	"math/rand"
	"testing"

	"knowphish/internal/racecheck"
)

// scoreReference scores x by walking the serialized per-tree node
// slices, the layout-naive implementation Score used before the
// flattened path existed. It is the equivalence oracle: Score must
// reproduce it bit-for-bit on every input (the flat layout is a cache
// optimization, not a numerical change).
func scoreReference(m *GBM, x []float64) float64 {
	f := m.InitScore
	for i := range m.Trees {
		f += m.Config.LearningRate * m.Trees[i].Predict(x)
	}
	return sigmoid(f)
}

// trainFlatFixture fits a small but non-trivial ensemble on a noisy
// two-signal problem, exercising multi-level trees and both classes.
func trainFlatFixture(t testing.TB) (*GBM, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const n, dim = 400, 12
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		if row[2]+0.5*row[7] > 0.2 {
			y[i] = 1
		}
	}
	m, err := TrainGBM(x, y, GBMConfig{Trees: 40, MaxDepth: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m, x
}

func TestFlatScoreMatchesReference(t *testing.T) {
	m, x := trainFlatFixture(t)
	for i, row := range x {
		got, want := m.Score(row), scoreReference(m, row)
		if got != want {
			t.Fatalf("row %d: flat score %v != reference %v (must be bit-for-bit)", i, got, want)
		}
	}
	// Short and over-long vectors take the out-of-range branch of the
	// split comparison; both layouts must agree there too.
	for _, row := range [][]float64{nil, {1.5}, append(append([]float64{}, x[0]...), 9, 9, 9)} {
		if got, want := m.Score(row), scoreReference(m, row); got != want {
			t.Fatalf("len %d: flat score %v != reference %v", len(row), got, want)
		}
	}
}

// TestFlatHandlesHandEditedTrees covers models whose node storage order
// did not come from FitTree: as long as Predict can walk a tree, the
// flattened layout must reproduce it, including unreachable nodes
// (dropped) and empty trees (predict 0).
func TestFlatHandlesHandEditedTrees(t *testing.T) {
	m := &GBM{
		Config:       GBMConfig{LearningRate: 0.5}.withDefaults(),
		InitScore:    -0.25,
		FeatureCount: 2,
		Trees: []Tree{
			// Children stored before the root; node 3 unreachable.
			{Nodes: []TreeNode{
				{Feature: -1, Value: 2},
				{Feature: -1, Value: -3},
				{Feature: 0, Threshold: 1.5, Left: 0, Right: 1},
				{Feature: -1, Value: 99},
			}},
			{}, // empty tree
			{Nodes: []TreeNode{{Feature: -1, Value: 1}}},
		},
	}
	// Re-point tree 0's root: Predict starts at index 0, so wrap the
	// stored-out-of-order shape by making index 0 the split node.
	m.Trees[0].Nodes[0], m.Trees[0].Nodes[2] = m.Trees[0].Nodes[2], m.Trees[0].Nodes[0]
	m.Trees[0].Nodes[0].Left, m.Trees[0].Nodes[0].Right = 2, 1
	for _, x := range [][]float64{{0, 0}, {2, 0}, {1.5, -1}} {
		if got, want := m.Score(x), scoreReference(m, x); got != want {
			t.Fatalf("x=%v: flat %v != reference %v", x, got, want)
		}
	}
	if f := m.flatten(); len(f.nodes) != 3+1+1 {
		t.Fatalf("flat layout kept %d nodes, want 5 (unreachable node must be dropped)", len(f.nodes))
	}
}

func TestFlatScoreDoesNotAllocate(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, x := trainFlatFixture(t)
	m.Score(x[0]) // build the flat layout outside the measured runs
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		sink = m.Score(x[0])
	})
	if allocs != 0 {
		t.Fatalf("Score allocated %.1f times per run, want 0", allocs)
	}
	if math.IsNaN(sink) {
		t.Fatal("NaN score")
	}
}
