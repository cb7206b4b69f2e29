package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// GBMConfig controls gradient-boosting training. The zero value is usable:
// every field defaults to the values noted below, matching a configuration
// comparable to scikit-learn's GradientBoostingClassifier defaults that the
// paper used.
type GBMConfig struct {
	// Trees is the number of boosting rounds (default 150).
	Trees int `json:"trees"`
	// LearningRate is the shrinkage ν (default 0.1).
	LearningRate float64 `json:"learning_rate"`
	// MaxDepth is the per-tree depth limit (default 3).
	MaxDepth int `json:"max_depth"`
	// MinLeaf is the per-leaf minimum sample count (default 5).
	MinLeaf int `json:"min_leaf"`
	// Subsample is the row-sampling ratio per round in (0,1]; values
	// below 1 give stochastic gradient boosting (Friedman 2002, the
	// variant the paper cites). Default 0.8.
	Subsample float64 `json:"subsample"`
	// FeatureFraction is the column-sampling ratio per round in (0,1].
	// Default 1 (all features).
	FeatureFraction float64 `json:"feature_fraction"`
	// Seed drives all sampling; the same seed reproduces the same model.
	Seed int64 `json:"seed"`
}

func (c GBMConfig) withDefaults() GBMConfig {
	if c.Trees < 1 {
		c.Trees = 150
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth < 1 {
		c.MaxDepth = 3
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = 5
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 0.8
	}
	if c.FeatureFraction <= 0 || c.FeatureFraction > 1 {
		c.FeatureFraction = 1
	}
	return c
}

// GBM is a gradient-boosted tree ensemble for binary classification with
// logistic loss. Score returns the positive-class confidence in [0,1]; a
// discrimination threshold (0.7 in the paper) converts it to a class.
type GBM struct {
	Config GBMConfig `json:"config"`
	// InitScore is F₀, the log-odds of the positive class on the
	// training set.
	InitScore float64 `json:"init_score"`
	// Trees are the fitted base learners in boosting order.
	Trees []Tree `json:"trees"`
	// FeatureCount records the training dimensionality for validation.
	FeatureCount int `json:"feature_count"`

	// contribOnce guards the lazily computed per-tree node expectations
	// Contributions walks (see contrib.go). Models are shared by
	// pointer; the cache makes per-prediction attribution O(path)
	// instead of O(nodes).
	contribOnce sync.Once
	nodeVals    [][]float64
	// flatOnce guards the contiguous inference layout Score traverses
	// (see flat.go). Like the contribution cache it is built once and
	// shared: a GBM is immutable once published to scorers.
	flatOnce sync.Once
	flat     *flatGBM
}

// TrainGBM fits a boosted ensemble on x (rows = samples) with binary
// labels y (0 or 1). Every feature value must be finite.
func TrainGBM(x [][]float64, y []int, cfg GBMConfig) (*GBM, error) {
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
	b, err := newTreeBuilder("TrainGBM", x)
	if err != nil {
		return nil, err
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
	everyFeature := allFeatures(dim)
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
		features := everyFeature
		if nFeat < dim {
			features = sampleWithoutReplacement(rng, dim, nFeat)
		}
		tree, leaves := b.fit(residual, idx, features, treeCfg)
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

// Score returns the positive-class confidence for x in [0,1]. It
// traverses the flattened node layout (built once per model, see
// flat.go) and never allocates.
func (m *GBM) Score(x []float64) float64 {
	return sigmoid(m.flatten().raw(x))
}

// ScoreAll maps Score over rows.
func (m *GBM) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Score(row)
	}
	return out
}

// Predict classifies x with the given discrimination threshold: class 1
// (phishing) when Score(x) >= threshold. The paper sets threshold = 0.7,
// favoring legitimate predictions.
func (m *GBM) Predict(x []float64, threshold float64) int {
	if m.Score(x) >= threshold {
		return 1
	}
	return 0
}

// FeatureImportance returns per-feature split counts, a simple importance
// measure: how often each feature was chosen across the ensemble.
func (m *GBM) FeatureImportance() []int {
	imp := make([]int, m.FeatureCount)
	for i := range m.Trees {
		for _, n := range m.Trees[i].Nodes {
			if n.Feature >= 0 && n.Feature < len(imp) {
				imp[n.Feature]++
			}
		}
	}
	return imp
}

func sigmoid(z float64) float64 {
	// Guard against overflow for extreme raw scores.
	if z > 35 {
		return 1
	}
	if z < -35 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

func allFeatures(dim int) []int {
	out := make([]int, dim)
	for i := range out {
		out[i] = i
	}
	return out
}

// sampleWithoutReplacement returns k distinct values from [0,n) using a
// partial Fisher–Yates shuffle.
func sampleWithoutReplacement(rng *rand.Rand, n, k int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k]
}
