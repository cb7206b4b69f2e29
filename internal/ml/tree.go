// Package ml is the machine-learning substrate the paper gets from
// scikit-learn: CART regression trees, stochastic gradient boosting
// (Friedman 2002, the paper's classifier, Section IV-C), logistic
// regression (used by the Ma et al. baseline), evaluation metrics
// (precision/recall/F1/FPR, ROC and AUC, precision–recall curves) and
// stratified cross-validation. Everything is deterministic given a seed.
package ml

import (
	"fmt"
	"math"
	"sort"
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

// treeBuilder carries the induction state.
type treeBuilder struct {
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
func FitTree(x [][]float64, target []float64, idx []int, features []int, cfg TreeConfig) (*Tree, map[int][]int, error) {
	if len(x) == 0 || len(x) != len(target) {
		return nil, nil, fmt.Errorf("ml: FitTree: %d samples vs %d targets", len(x), len(target))
	}
	if len(idx) == 0 {
		return nil, nil, fmt.Errorf("ml: FitTree: empty sample index set")
	}
	b := &treeBuilder{
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
func (b *treeBuilder) grow(idx []int, depth int) int {
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
func (b *treeBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
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
