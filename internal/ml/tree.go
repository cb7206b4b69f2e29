// Package ml is the machine-learning substrate the paper gets from
// scikit-learn: CART regression trees, stochastic gradient boosting
// (Friedman 2002, the paper's classifier, Section IV-C), logistic
// regression (used by the Ma et al. baseline), evaluation metrics
// (precision/recall/F1/FPR, ROC and AUC, precision–recall curves) and
// stratified cross-validation. Everything is deterministic given a seed.
//
// Tree induction is exact (every distinct value of every candidate
// feature is tried at every node) and scans a node's samples in
// ascending feature value, ties by row index; the model no longer
// depends on the standard library's sort.
package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// TreeConfig controls regression-tree induction.
type TreeConfig struct {
	// MaxDepth limits tree depth; the root is at depth 0. Values < 1
	// default to 3.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf. Values < 1
	// default to 1.
	MinLeaf int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth < 1 {
		c.MaxDepth = 3
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = 1
	}
	return c
}

// TreeNode is one node of a regression tree. Leaves have Feature == -1.
// Nodes are stored in a flat slice addressed by index so trees serialize
// naturally to JSON.
type TreeNode struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature int `json:"f"`
	// Threshold splits samples: x[Feature] <= Threshold goes left.
	Threshold float64 `json:"t"`
	// Left and Right are child indices in Tree.Nodes; unset for leaves.
	Left  int `json:"l,omitempty"`
	Right int `json:"r,omitempty"`
	// Value is the prediction at a leaf.
	Value float64 `json:"v"`
}

// Tree is a CART regression tree fit by greedy variance reduction.
type Tree struct {
	Nodes []TreeNode `json:"nodes"`
}

// Predict returns the tree's output for feature vector x.
func (t *Tree) Predict(x []float64) float64 {
	if len(t.Nodes) == 0 {
		return 0
	}
	i := 0
	for {
		n := t.Nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if n.Feature < len(x) && x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// LeafIndex returns the index in t.Nodes of the leaf x falls into.
func (t *Tree) LeafIndex(x []float64) int {
	i := 0
	for {
		n := t.Nodes[i]
		if n.Feature < 0 {
			return i
		}
		if n.Feature < len(x) && x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// treeBuilder fits trees on one training matrix. It is built once per
// fit and reused for every tree of an ensemble: the matrix is held
// column-major with each column's rows presorted by (value, row index),
// so no node ever sorts.
type treeBuilder struct {
	n     int       // rows of x
	vals  []float64 // column-major x: vals[f*n+row]
	order []int32   // order[f*n:(f+1)*n]: rows ascending by (value in column f, row)

	// Scratch reused across trees. lists holds 1+len(features) lists of
	// m rows each: list 0 is the sample in the caller's order, list 1+j
	// the same multiset ascending by (value in features[j], row). A node
	// is a range [lo,hi) of every list at once; a split partitions each
	// of them stably in place.
	lists  []int32
	m      int
	count  []int32 // row → times drawn into the current tree's sample
	goLeft []bool  // row → side of the split being applied
	spill  []int32 // right-hand rows of the list being partitioned

	// Per tree.
	target   []float64
	cfg      TreeConfig
	features []int // candidate feature indices (column subsample)
	nodes    []TreeNode
	leaves   map[int][]int // leaf node index → sample indices
	leafRows []int         // backing array of the leaves' sample lists
}

// newTreeBuilder presorts x's columns. It rejects a ragged matrix and
// any non-finite value (under NaN no order of a column exists); op
// prefixes the error.
func newTreeBuilder(op string, x [][]float64) (*treeBuilder, error) {
	n, dim := len(x), len(x[0])
	b := &treeBuilder{
		n:      n,
		vals:   make([]float64, n*dim),
		order:  make([]int32, n*dim),
		count:  make([]int32, n),
		goLeft: make([]bool, n),
	}
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("ml: %s: row %d has %d features, want %d", op, i, len(row), dim)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ml: %s: row %d column %d is %v, features must be finite", op, i, f, v)
			}
			b.vals[f*n+i] = v
		}
	}
	for f := 0; f < dim; f++ {
		col, order := b.vals[f*n:(f+1)*n], b.order[f*n:(f+1)*n]
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, c int32) int {
			if r := cmp.Compare(col[a], col[c]); r != 0 {
				return r
			}
			return cmp.Compare(a, c)
		})
	}
	return b, nil
}

// FitTree builds a regression tree on samples idx (indices into x/target),
// splitting on the given candidate features. It returns the tree and, for
// boosting's Newton leaf step, the sample indices grouped per leaf node.
// Every feature value must be finite.
func FitTree(x [][]float64, target []float64, idx []int, features []int, cfg TreeConfig) (*Tree, map[int][]int, error) {
	if len(x) == 0 || len(x) != len(target) {
		return nil, nil, fmt.Errorf("ml: FitTree: %d samples vs %d targets", len(x), len(target))
	}
	if len(idx) == 0 {
		return nil, nil, fmt.Errorf("ml: FitTree: empty sample index set")
	}
	b, err := newTreeBuilder("FitTree", x)
	if err != nil {
		return nil, nil, err
	}
	if len(features) == 0 {
		features = allFeatures(len(x[0]))
	}
	tree, leaves := b.fit(target, idx, features, cfg)
	return tree, leaves, nil
}

// fit builds one tree on the rows idx — a multiset: a bootstrap sample
// repeats rows — trying the candidate features in the order given.
func (b *treeBuilder) fit(target []float64, idx, features []int, cfg TreeConfig) (*Tree, map[int][]int) {
	m := len(idx)
	b.target, b.cfg, b.features, b.m = target, cfg.withDefaults(), features, m
	b.nodes, b.leaves, b.leafRows = nil, make(map[int][]int), make([]int, m)
	if need := (1 + len(features)) * m; len(b.lists) < need {
		b.lists = make([]int32, need)
	}
	if len(b.spill) < m {
		b.spill = make([]int32, m)
	}
	for k, i := range idx {
		b.lists[k] = int32(i)
		b.count[i]++
	}
	// A feature's list is its presorted column filtered through the
	// sample: O(n), no sort, a row drawn c times emitted c times.
	for j, f := range features {
		list := b.lists[(1+j)*m : (2+j)*m]
		k := 0
		for _, row := range b.order[f*b.n : (f+1)*b.n] {
			for c := b.count[row]; c > 0; c-- {
				list[k] = row
				k++
			}
		}
	}
	for _, i := range idx {
		b.count[i] = 0
	}
	b.grow(0, m, 0)
	return &Tree{Nodes: b.nodes}, b.leaves
}

// leaf closes node nodeIdx over the samples [lo,hi) of list 0.
func (b *treeBuilder) leaf(nodeIdx, lo, hi int, mean float64) int {
	rows := b.leafRows[lo:hi:hi]
	for k, i := range b.lists[lo:hi] {
		rows[k] = int(i)
	}
	b.nodes[nodeIdx].Value = mean
	b.leaves[nodeIdx] = rows
	return nodeIdx
}

// grow recursively builds the subtree for the samples [lo,hi) at the
// given depth and returns the node index.
func (b *treeBuilder) grow(lo, hi, depth int) int {
	nodeIdx := len(b.nodes)
	b.nodes = append(b.nodes, TreeNode{Feature: -1})

	mean := 0.0
	for _, i := range b.lists[lo:hi] {
		mean += b.target[i]
	}
	mean /= float64(hi - lo)

	if depth >= b.cfg.MaxDepth || hi-lo < 2*b.cfg.MinLeaf {
		return b.leaf(nodeIdx, lo, hi, mean)
	}
	feat, thr, ok := b.bestSplit(lo, hi)
	if !ok {
		return b.leaf(nodeIdx, lo, hi, mean)
	}

	// The threshold is a midpoint, which may round onto the upper value:
	// sides are decided by comparing against it, not by scan position.
	col := b.vals[feat*b.n : (feat+1)*b.n]
	nLeft := 0
	for _, i := range b.lists[lo:hi] {
		b.goLeft[i] = col[i] <= thr
		if b.goLeft[i] {
			nLeft++
		}
	}
	if nLeft < b.cfg.MinLeaf || hi-lo-nLeft < b.cfg.MinLeaf {
		return b.leaf(nodeIdx, lo, hi, mean)
	}
	// Children at the depth limit are never scanned: only the sample
	// list itself needs splitting for them.
	split := 1 + len(b.features)
	if depth+1 >= b.cfg.MaxDepth {
		split = 1
	}
	for j := 0; j < split; j++ {
		b.partition(b.lists[j*b.m+lo : j*b.m+hi])
	}
	b.nodes[nodeIdx].Feature = feat
	b.nodes[nodeIdx].Threshold = thr
	l := b.grow(lo, lo+nLeft, depth+1)
	r := b.grow(lo+nLeft, hi, depth+1)
	b.nodes[nodeIdx].Left = l
	b.nodes[nodeIdx].Right = r
	return nodeIdx
}

// partition moves list's goLeft rows to its front, keeping the order
// within each side.
func (b *treeBuilder) partition(list []int32) {
	l, r := 0, 0
	for _, i := range list {
		if b.goLeft[i] {
			list[l] = i
			l++
		} else {
			b.spill[r] = i
			r++
		}
	}
	copy(list[l:], b.spill[:r])
}

// bestSplit finds the (feature, threshold) pair maximizing variance
// reduction over the samples [lo,hi). It returns ok=false when no split
// improves.
func (b *treeBuilder) bestSplit(lo, hi int) (feature int, threshold float64, ok bool) {
	n := hi - lo
	var totalSum, totalSq float64
	for _, i := range b.lists[lo:hi] {
		v := b.target[i]
		totalSum += v
		totalSq += v * v
	}
	baseSSE := totalSq - totalSum*totalSum/float64(n)

	bestGain := 1e-12
	for j, f := range b.features {
		list := b.lists[(1+j)*b.m+lo : (1+j)*b.m+hi]
		col := b.vals[f*b.n : (f+1)*b.n]
		if col[list[0]] == col[list[n-1]] {
			continue // constant feature on this node
		}
		var leftSum, leftSq float64
		next := col[list[0]]
		for k := 0; k < n-1; k++ {
			t := b.target[list[k]]
			leftSum += t
			leftSq += t * t
			val := next
			next = col[list[k+1]]
			if val == next {
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
				threshold = (val + next) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}
