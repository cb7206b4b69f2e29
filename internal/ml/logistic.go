package ml

import (
	"fmt"
	"math/rand"
)

// SparseVector is a sparse feature vector as (index, value) pairs, used by
// the bag-of-words baselines whose dimensionality (hashed n-grams over
// URLs) is far too large for dense rows.
type SparseVector []SparseEntry

// SparseEntry is one non-zero coordinate of a SparseVector.
type SparseEntry struct {
	Index int     `json:"i"`
	Value float64 `json:"v"`
}

// LRConfig controls logistic-regression training.
type LRConfig struct {
	// Dim is the weight-vector dimensionality (hashing-trick space).
	// Required, > 0.
	Dim int
	// Epochs is the number of SGD passes (default 5).
	Epochs int
	// LearningRate is the SGD step size (default 0.1).
	LearningRate float64
	// Seed drives example shuffling.
	Seed int64
}

func (c LRConfig) withDefaults() (LRConfig, error) {
	if c.Dim <= 0 {
		return c, fmt.Errorf("ml: logistic regression requires Dim > 0, got %d", c.Dim)
	}
	if c.Epochs < 1 {
		c.Epochs = 5
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	return c, nil
}

// LogisticRegression is a sparse binary logistic classifier trained with
// SGD, standing in for the online learners of the Ma et al. baseline.
type LogisticRegression struct {
	Weights []float64 `json:"weights"`
	Bias    float64   `json:"bias"`
}

// TrainLogistic fits the model on sparse rows x with labels y in {0,1}.
func TrainLogistic(x []SparseVector, y []int, cfg LRConfig) (*LogisticRegression, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("ml: TrainLogistic: %d samples vs %d labels", len(x), len(y))
	}
	m := &LogisticRegression{Weights: make([]float64, cfg.Dim)}
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		lr := cfg.LearningRate / (1 + float64(e)) // simple decay
		for _, i := range order {
			p := m.Score(x[i])
			g := p - float64(y[i])
			m.Bias -= lr * g
			for _, ent := range x[i] {
				if ent.Index < 0 || ent.Index >= cfg.Dim {
					continue
				}
				m.Weights[ent.Index] -= lr * (g * ent.Value)
			}
		}
	}
	return m, nil
}

// Score returns the positive-class probability for x.
func (m *LogisticRegression) Score(x SparseVector) float64 {
	z := m.Bias
	for _, ent := range x {
		if ent.Index >= 0 && ent.Index < len(m.Weights) {
			z += m.Weights[ent.Index] * ent.Value
		}
	}
	return sigmoid(z)
}

// ScoreAll maps Score over rows.
func (m *LogisticRegression) ScoreAll(x []SparseVector) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = m.Score(x[i])
	}
	return out
}

// HashFeature maps a string token into the hashing-trick space [0, dim).
// FNV-1a, stdlib-free for inlining.
func HashFeature(token string, dim int) int {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(token); i++ {
		h ^= uint32(token[i])
		h *= prime
	}
	return int(h % uint32(dim))
}
