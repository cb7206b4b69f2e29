package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// ForestConfig controls random-forest training (used by the classifier-
// choice ablation; the paper selects gradient boosting, citing its
// feature-selection behaviour and overfitting robustness — the ablation
// quantifies that choice).
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int `json:"trees"`
	// MaxDepth limits each tree (default 8 — forests want deep trees).
	MaxDepth int `json:"max_depth"`
	// MinLeaf is the per-leaf minimum (default 2).
	MinLeaf int `json:"min_leaf"`
	// FeatureFraction is the per-split... per-tree column sample
	// (default sqrt(d)/d).
	FeatureFraction float64 `json:"feature_fraction"`
	// Seed drives bootstrap and column sampling.
	Seed int64 `json:"seed"`
}

func (c ForestConfig) withDefaults(dim int) ForestConfig {
	if c.Trees < 1 {
		c.Trees = 100
	}
	if c.MaxDepth < 1 {
		c.MaxDepth = 8
	}
	if c.MinLeaf < 1 {
		c.MinLeaf = 2
	}
	if c.FeatureFraction <= 0 || c.FeatureFraction > 1 {
		c.FeatureFraction = math.Sqrt(float64(dim)) / float64(dim)
	}
	return c
}

// RandomForest is a bagged ensemble of regression trees fit to class
// labels; Score averages the per-tree leaf means, giving a probability
// estimate in [0,1].
type RandomForest struct {
	Config ForestConfig `json:"config"`
	Trees  []Tree       `json:"trees"`
}

// TrainForest fits a random forest on x with binary labels y. Every
// feature value must be finite.
func TrainForest(x [][]float64, y []int, cfg ForestConfig) (*RandomForest, error) {
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
	b, err := newTreeBuilder("TrainForest", x)
	if err != nil {
		return nil, err
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
		tree, _ := b.fit(target, idx, features, treeCfg)
		f.Trees = append(f.Trees, *tree)
	}
	return f, nil
}

// Score returns the forest's positive-class probability estimate.
func (f *RandomForest) Score(x []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	var sum float64
	for i := range f.Trees {
		sum += f.Trees[i].Predict(x)
	}
	p := sum / float64(len(f.Trees))
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// ScoreAll maps Score over rows.
func (f *RandomForest) ScoreAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = f.Score(row)
	}
	return out
}
