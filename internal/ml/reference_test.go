package ml

// The trainers as they stood before the presorted-column kernel, kept
// verbatim as the oracle the differential and fuzz tests hold FitTree,
// TrainGBM and TrainForest to, byte for byte: every node copies its
// samples and sorts them once per candidate feature. Never "modernise"
// this file.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// referenceBuilder carries the induction state.
type referenceBuilder struct {
	x        [][]float64
	target   []float64
	cfg      TreeConfig
	features []int // candidate feature indices (column subsample)
	nodes    []TreeNode
	leaves   map[int][]int // leaf node index → sample indices
}

// FitTree builds a regression tree on samples idx (indices into x/target),
// splitting on the given candidate features. It returns the tree and, for
// boosting's Newton leaf step, the sample indices grouped per leaf node.
func referenceFitTree(x [][]float64, target []float64, idx []int, features []int, cfg TreeConfig) (*Tree, map[int][]int, error) {
	if len(x) == 0 || len(x) != len(target) {
		return nil, nil, fmt.Errorf("ml: FitTree: %d samples vs %d targets", len(x), len(target))
	}
	if len(idx) == 0 {
		return nil, nil, fmt.Errorf("ml: FitTree: empty sample index set")
	}
	b := &referenceBuilder{
		x:        x,
		target:   target,
		cfg:      cfg.withDefaults(),
		features: features,
		leaves:   make(map[int][]int),
	}
	if len(b.features) == 0 {
		b.features = make([]int, len(x[0]))
		for i := range b.features {
			b.features[i] = i
		}
	}
	b.grow(idx, 0)
	return &Tree{Nodes: b.nodes}, b.leaves, nil
}

// grow recursively builds the subtree for samples idx at the given depth
// and returns the node index.
func (b *referenceBuilder) grow(idx []int, depth int) int {
	nodeIdx := len(b.nodes)
	b.nodes = append(b.nodes, TreeNode{Feature: -1})

	mean := 0.0
	for _, i := range idx {
		mean += b.target[i]
	}
	mean /= float64(len(idx))

	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf {
		b.nodes[nodeIdx].Value = mean
		b.leaves[nodeIdx] = idx
		return nodeIdx
	}

	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		b.nodes[nodeIdx].Value = mean
		b.leaves[nodeIdx] = idx
		return nodeIdx
	}

	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		b.nodes[nodeIdx].Value = mean
		b.leaves[nodeIdx] = idx
		return nodeIdx
	}
	b.nodes[nodeIdx].Feature = feat
	b.nodes[nodeIdx].Threshold = thr
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[nodeIdx].Left = l
	b.nodes[nodeIdx].Right = r
	return nodeIdx
}

// bestSplit finds the (feature, threshold) pair maximizing variance
// reduction over samples idx. It returns ok=false when no split improves.
func (b *referenceBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	n := len(idx)
	var totalSum, totalSq float64
	for _, i := range idx {
		v := b.target[i]
		totalSum += v
		totalSq += v * v
	}
	baseSSE := totalSq - totalSum*totalSum/float64(n)

	bestGain := 1e-12
	type fv struct {
		val    float64
		target float64
		row    int
	}
	vals := make([]fv, n)
	for _, f := range b.features {
		for k, i := range idx {
			vals[k] = fv{b.x[i][f], b.target[i], i}
		}
		// Ties by row index: the order is total, so the model does not
		// depend on which sorting algorithm produced it.
		sort.Slice(vals, func(a, c int) bool {
			if vals[a].val != vals[c].val {
				return vals[a].val < vals[c].val
			}
			return vals[a].row < vals[c].row
		})
		if vals[0].val == vals[n-1].val {
			continue // constant feature on this node
		}
		var leftSum, leftSq float64
		for k := 0; k < n-1; k++ {
			leftSum += vals[k].target
			leftSq += vals[k].target * vals[k].target
			if vals[k].val == vals[k+1].val {
				continue // can't split between equal values
			}
			nl := float64(k + 1)
			nr := float64(n - k - 1)
			if int(nl) < b.cfg.MinLeaf || int(nr) < b.cfg.MinLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/nl) + (rightSq - rightSum*rightSum/nr)
			gain := baseSSE - sse
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (vals[k].val + vals[k+1].val) / 2
				ok = true
			}
		}
	}
	if math.IsNaN(threshold) {
		return 0, 0, false
	}
	return feature, threshold, ok
}

// referenceTrainGBM is the parent's TrainGBM: it fits a boosted ensemble on x (rows = samples) with binary
// labels y (0 or 1).
func referenceTrainGBM(x [][]float64, y []int, cfg GBMConfig) (*GBM, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("ml: TrainGBM: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: TrainGBM: %d samples vs %d labels", len(x), len(y))
	}
	var pos int
	for _, v := range y {
		switch v {
		case 0:
		case 1:
			pos++
		default:
			return nil, fmt.Errorf("ml: TrainGBM: label %d not in {0,1}", v)
		}
	}
	if pos == 0 || pos == len(y) {
		return nil, fmt.Errorf("ml: TrainGBM: training set needs both classes (positives=%d of %d)", pos, len(y))
	}
	cfg = cfg.withDefaults()
	n := len(x)
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("ml: TrainGBM: row %d has %d features, want %d", i, len(row), dim)
		}
	}

	m := &GBM{Config: cfg, FeatureCount: dim}
	p := float64(pos) / float64(n)
	m.InitScore = math.Log(p / (1 - p))

	rng := rand.New(rand.NewSource(cfg.Seed))
	f := make([]float64, n) // current raw scores F(x_i)
	for i := range f {
		f[i] = m.InitScore
	}
	residual := make([]float64, n)
	allIdx := make([]int, n)
	for i := range allIdx {
		allIdx[i] = i
	}
	treeCfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}
	nSub := int(cfg.Subsample * float64(n))
	if nSub < 2 {
		nSub = n
	}
	nFeat := int(cfg.FeatureFraction * float64(dim))
	if nFeat < 1 {
		nFeat = 1
	}

	for round := 0; round < cfg.Trees; round++ {
		// Negative gradient of logistic loss: r_i = y_i − p_i.
		for i := 0; i < n; i++ {
			residual[i] = float64(y[i]) - sigmoid(f[i])
		}
		idx := allIdx
		if nSub < n {
			idx = sampleWithoutReplacement(rng, n, nSub)
		}
		features := allFeatures(dim)
		if nFeat < dim {
			features = sampleWithoutReplacement(rng, dim, nFeat)
		}
		tree, leaves, err := referenceFitTree(x, residual, idx, features, treeCfg)
		if err != nil {
			return nil, fmt.Errorf("ml: TrainGBM round %d: %w", round, err)
		}
		// Newton leaf step for logistic loss:
		// γ = Σ r_i / Σ p_i (1 − p_i)  over the leaf's samples.
		for leaf, samples := range leaves {
			var num, den float64
			for _, i := range samples {
				pi := sigmoid(f[i])
				num += residual[i]
				den += pi * (1 - pi)
			}
			if den < 1e-12 {
				tree.Nodes[leaf].Value = 0
			} else {
				tree.Nodes[leaf].Value = num / den
			}
		}
		// Update every sample's score with the shrunken tree output.
		for i := 0; i < n; i++ {
			f[i] += cfg.LearningRate * tree.Predict(x[i])
		}
		m.Trees = append(m.Trees, *tree)
	}
	return m, nil
}

// referenceTrainForest is the parent's TrainForest: it fits a random forest on x with binary labels y.
func referenceTrainForest(x [][]float64, y []int, cfg ForestConfig) (*RandomForest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("ml: TrainForest: %d samples vs %d labels", len(x), len(y))
	}
	dim := len(x[0])
	cfg = cfg.withDefaults(dim)
	target := make([]float64, len(y))
	var pos int
	for i, v := range y {
		if v != 0 && v != 1 {
			return nil, fmt.Errorf("ml: TrainForest: label %d not in {0,1}", v)
		}
		target[i] = float64(v)
		pos += v
	}
	if pos == 0 || pos == len(y) {
		return nil, fmt.Errorf("ml: TrainForest: training set needs both classes")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nFeat := int(cfg.FeatureFraction * float64(dim))
	if nFeat < 1 {
		nFeat = 1
	}
	f := &RandomForest{Config: cfg}
	treeCfg := TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}
	n := len(x)
	for t := 0; t < cfg.Trees; t++ {
		// Bootstrap sample with replacement.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		features := sampleWithoutReplacement(rng, dim, nFeat)
		tree, _, err := referenceFitTree(x, target, idx, features, treeCfg)
		if err != nil {
			return nil, fmt.Errorf("ml: TrainForest tree %d: %w", t, err)
		}
		f.Trees = append(f.Trees, *tree)
	}
	return f, nil
}
