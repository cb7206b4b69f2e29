package ml

// Flattened inference layout for the boosted ensemble. The JSON model
// keeps its per-tree []TreeNode representation (40 bytes per node, one
// slice per tree) because that is the serialization and training
// format; serving traffic never walks it. On first Score the ensemble
// is flattened once into a single contiguous node array shared by all
// trees — 24 bytes per node, children addressed by absolute index, leaf
// values packed into the threshold slot — so a prediction is a tight
// loop over one cache-friendly slice with no per-tree slice headers, no
// interface calls and zero allocation.
//
// Flattening is layout-only: nodes are re-emitted in the order Predict
// would visit them (pre-order, left first), thresholds, values and the
// per-tree accumulation order are untouched, so flat scores are
// bit-for-bit identical to the reference tree walk (pinned by
// TestFlatScoreMatchesReference).

// flatNode is one node of the flattened ensemble. Internal nodes use
// thrVal as the split threshold; leaves (feature < 0) use it as the
// leaf value, which keeps the struct at 24 bytes instead of 32.
type flatNode struct {
	thrVal  float64
	feature int32 // split feature index, or -1 for a leaf
	left    int32 // absolute index in flatGBM.nodes
	right   int32
}

// flatGBM is the immutable inference view of a GBM.
type flatGBM struct {
	nodes []flatNode
	roots []int32 // one root index per tree, in boosting order
	lr    float64
	init  float64
}

// flatten builds (once) and returns the flattened ensemble. Models are
// shared by pointer and immutable once published, so the sync.Once is
// an atomic load on the hot path after the first call.
func (m *GBM) flatten() *flatGBM {
	m.flatOnce.Do(func() {
		f := &flatGBM{
			roots: make([]int32, 0, len(m.Trees)),
			lr:    m.Config.LearningRate,
			init:  m.InitScore,
		}
		n := 0
		for i := range m.Trees {
			n += len(m.Trees[i].Nodes)
		}
		f.nodes = make([]flatNode, 0, n)
		for i := range m.Trees {
			f.roots = append(f.roots, f.appendTree(&m.Trees[i]))
		}
		m.flat = f
	})
	return m.flat
}

// appendTree re-emits the nodes of t reachable from its root into the
// shared array, pre-order with the left subtree first, and returns the
// new root index. Unreachable nodes are dropped — Predict can never
// visit them. An empty tree becomes a zero-value leaf, preserving the
// reference walk's "empty tree predicts 0" contract.
func (f *flatGBM) appendTree(t *Tree) int32 {
	if len(t.Nodes) == 0 {
		f.nodes = append(f.nodes, flatNode{feature: -1})
		return int32(len(f.nodes) - 1)
	}
	var emit func(old int) int32
	emit = func(old int) int32 {
		n := t.Nodes[old]
		at := int32(len(f.nodes))
		if n.Feature < 0 {
			f.nodes = append(f.nodes, flatNode{thrVal: n.Value, feature: -1})
			return at
		}
		f.nodes = append(f.nodes, flatNode{thrVal: n.Threshold, feature: int32(n.Feature)})
		l := emit(n.Left)
		r := emit(n.Right)
		f.nodes[at].left = l
		f.nodes[at].right = r
		return at
	}
	return emit(0)
}

// raw returns the ensemble's raw (log-odds) score for x, accumulated
// in the same per-tree order as the reference walk.
func (f *flatGBM) raw(x []float64) float64 {
	s := f.init
	lr := f.lr
	nodes := f.nodes
	nx := int32(len(x))
	for _, i := range f.roots {
		for {
			n := nodes[i]
			if n.feature < 0 {
				s += lr * n.thrVal
				break
			}
			if n.feature < nx && x[n.feature] <= n.thrVal {
				i = n.left
			} else {
				i = n.right
			}
		}
	}
	return s
}
