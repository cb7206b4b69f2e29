package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitTreeSimpleSplit(t *testing.T) {
	// One feature perfectly separates targets 0 and 10.
	x := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	target := []float64{0, 0, 0, 10, 10, 10}
	idx := []int{0, 1, 2, 3, 4, 5}
	tree, leaves, err := FitTree(x, target, idx, nil, TreeConfig{MaxDepth: 2, MinLeaf: 1})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	if got := tree.Predict([]float64{2}); got != 0 {
		t.Errorf("Predict(2) = %v, want 0", got)
	}
	if got := tree.Predict([]float64{11}); got != 10 {
		t.Errorf("Predict(11) = %v, want 10", got)
	}
	// Every sample lands in exactly one leaf.
	seen := map[int]bool{}
	for _, samples := range leaves {
		for _, s := range samples {
			if seen[s] {
				t.Errorf("sample %d in multiple leaves", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != len(idx) {
		t.Errorf("leaves cover %d samples, want %d", len(seen), len(idx))
	}
}

func TestFitTreeConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	target := []float64{5, 5, 5}
	tree, _, err := FitTree(x, target, []int{0, 1, 2}, nil, TreeConfig{})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	// No variance to reduce: single leaf predicting 5.
	if len(tree.Nodes) != 1 {
		t.Errorf("nodes = %d, want 1 (pure leaf)", len(tree.Nodes))
	}
	if got := tree.Predict([]float64{99}); got != 5 {
		t.Errorf("Predict = %v, want 5", got)
	}
}

func TestFitTreeConstantFeature(t *testing.T) {
	x := [][]float64{{7}, {7}, {7}, {7}}
	target := []float64{0, 1, 0, 1}
	tree, _, err := FitTree(x, target, []int{0, 1, 2, 3}, nil, TreeConfig{})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	if got := tree.Predict([]float64{7}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Predict = %v, want 0.5 (mean, unsplittable)", got)
	}
}

func TestFitTreeErrors(t *testing.T) {
	if _, _, err := FitTree(nil, nil, nil, nil, TreeConfig{}); err == nil {
		t.Error("empty input: want error")
	}
	if _, _, err := FitTree([][]float64{{1}}, []float64{1, 2}, []int{0}, nil, TreeConfig{}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, _, err := FitTree([][]float64{{1}}, []float64{1}, nil, nil, TreeConfig{}); err == nil {
		t.Error("empty idx: want error")
	}
}

func TestFitTreeMinLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := make([][]float64, n)
	target := make([]float64, n)
	idx := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64()}
		target[i] = rng.Float64()
		idx[i] = i
	}
	minLeaf := 20
	_, leaves, err := FitTree(x, target, idx, nil, TreeConfig{MaxDepth: 6, MinLeaf: minLeaf})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	for leaf, samples := range leaves {
		if len(samples) < minLeaf {
			t.Errorf("leaf %d has %d samples, min %d", leaf, len(samples), minLeaf)
		}
	}
}

func TestFitTreeDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	x := make([][]float64, n)
	target := make([]float64, n)
	idx := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		target[i] = x[i][0]*3 + x[i][1]
		idx[i] = i
	}
	maxDepth := 3
	tree, _, err := FitTree(x, target, idx, nil, TreeConfig{MaxDepth: maxDepth, MinLeaf: 1})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	// Max nodes for depth d: 2^(d+1) − 1.
	if limit := 1<<(maxDepth+1) - 1; len(tree.Nodes) > limit {
		t.Errorf("nodes = %d exceeds depth-%d limit %d", len(tree.Nodes), maxDepth, limit)
	}
	var depth func(i, d int) int
	depth = func(i, d int) int {
		n := tree.Nodes[i]
		if n.Feature < 0 {
			return d
		}
		l := depth(n.Left, d+1)
		r := depth(n.Right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if got := depth(0, 0); got > maxDepth {
		t.Errorf("tree depth = %d, max %d", got, maxDepth)
	}
}

func TestTreePredictionWithinTargetRange(t *testing.T) {
	// Property: leaf values are means of training targets, so predictions
	// stay within [min(target), max(target)].
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(100)
		x := make([][]float64, n)
		target := make([]float64, n)
		idx := make([]int, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			target[i] = rng.NormFloat64() * 10
			idx[i] = i
			lo = math.Min(lo, target[i])
			hi = math.Max(hi, target[i])
		}
		tree, _, err := FitTree(x, target, idx, nil, TreeConfig{MaxDepth: 4, MinLeaf: 2})
		if err != nil {
			t.Fatalf("FitTree: %v", err)
		}
		for probe := 0; probe < 20; probe++ {
			p := tree.Predict([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
			if p < lo-1e-9 || p > hi+1e-9 {
				t.Fatalf("prediction %v outside target range [%v,%v]", p, lo, hi)
			}
		}
	}
}

func TestFeatureSubsetRespected(t *testing.T) {
	// Feature 0 is perfectly predictive, feature 1 is noise; restricting
	// the tree to feature 1 must prevent it from using feature 0.
	x := [][]float64{{0, 5}, {0, 6}, {1, 5}, {1, 6}}
	target := []float64{0, 0, 1, 1}
	tree, _, err := FitTree(x, target, []int{0, 1, 2, 3}, []int{1}, TreeConfig{MaxDepth: 3, MinLeaf: 1})
	if err != nil {
		t.Fatalf("FitTree: %v", err)
	}
	for _, n := range tree.Nodes {
		if n.Feature == 0 {
			t.Error("tree used feature 0 outside the allowed subset")
		}
	}
}

func TestEmptyTreePredict(t *testing.T) {
	var tree Tree
	if got := tree.Predict([]float64{1}); got != 0 {
		t.Errorf("empty tree Predict = %v, want 0", got)
	}
}
