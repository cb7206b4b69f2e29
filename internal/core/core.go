// Package core assembles the paper's two systems into the user-facing
// library: the phishing Detector (212 features + Gradient Boosting with a
// 0.7 discrimination threshold, Section IV) and the detection→target-
// identification Pipeline (Section III-C), which uses target
// identification to confirm detector positives and discard false
// positives (Section VI-D).
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/ranking"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// DefaultThreshold is the paper's discrimination threshold: confidence in
// [0, 0.7) predicts legitimate, [0.7, 1] predicts phishing, deliberately
// favoring legitimate predictions (Section VI-A).
const DefaultThreshold = 0.7

// DefaultGBMConfig returns the boosting configuration used throughout the
// experiments, comparable to the scikit-learn defaults the paper relies
// on.
func DefaultGBMConfig() ml.GBMConfig {
	return ml.GBMConfig{
		Trees:        120,
		LearningRate: 0.1,
		MaxDepth:     4,
		MinLeaf:      5,
		Subsample:    0.8,
		Seed:         1,
	}
}

// TrainConfig controls detector training.
type TrainConfig struct {
	// GBM configures the boosted ensemble (zero value → defaults).
	GBM ml.GBMConfig
	// Threshold is the discrimination threshold (0 → DefaultThreshold).
	Threshold float64
	// FeatureSet restricts training to a feature group combination
	// (0 → features.All). Used by the per-set experiments.
	FeatureSet features.Set
	// Rank is the offline popularity list for feature 9 (may be nil).
	Rank *ranking.List
}

// Detector is the trained phishing classifier. A Detector is immutable
// once trained or loaded, so any number of goroutines may score through
// one concurrently.
type Detector struct {
	extractor features.Extractor
	model     *ml.GBM
	threshold float64
	set       features.Set
	columns   []int // projection of the full vector, nil when set == All
}

// Train fits a detector on labeled snapshots (label 1 = phishing). The
// feature vectors are extracted on all cores, each into its own row.
func Train(snaps []*webpage.Snapshot, labels []int, cfg TrainConfig) (*Detector, error) {
	if len(snaps) == 0 || len(snaps) != len(labels) {
		return nil, fmt.Errorf("core: Train: %d snapshots vs %d labels", len(snaps), len(labels))
	}
	e := features.Extractor{Rank: cfg.Rank}
	return TrainOnVectors(e.ExtractBatch(snaps, 0), labels, cfg)
}

// TrainOnVectors fits a detector on precomputed full 212-feature vectors.
// Experiment runners use it to share one extraction pass across the eight
// feature-set models.
func TrainOnVectors(x [][]float64, labels []int, cfg TrainConfig) (*Detector, error) {
	if cfg.FeatureSet == 0 {
		cfg.FeatureSet = features.All
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.GBM.Trees == 0 {
		gbm := DefaultGBMConfig()
		gbm.Seed = cfg.GBM.Seed
		if gbm.Seed == 0 {
			gbm.Seed = 1
		}
		cfg.GBM = gbm
	}
	d := &Detector{
		extractor: features.Extractor{Rank: cfg.Rank},
		threshold: cfg.Threshold,
		set:       cfg.FeatureSet,
	}
	train := x
	if cfg.FeatureSet != features.All {
		d.columns = features.Indices(cfg.FeatureSet)
		train = features.Project(x, d.columns)
	}
	m, err := ml.TrainGBM(train, labels, cfg.GBM)
	if err != nil {
		return nil, fmt.Errorf("core: training detector: %w", err)
	}
	d.model = m
	return d, nil
}

// Threshold returns the detector's discrimination threshold.
func (d *Detector) Threshold() float64 { return d.threshold }

// FeatureSet returns the feature groups the detector was trained on.
func (d *Detector) FeatureSet() features.Set { return d.set }

// Model exposes the underlying ensemble (read-only use).
func (d *Detector) Model() *ml.GBM { return d.model }

// ScoreAnalysis scores an already-analyzed page with a fresh full
// extraction. It is a low-level building block (the experiment runners
// share one analysis across models) and the slow reference path the
// tests hold ScoreCtx to; request-scoped callers want ScoreCtx.
func (d *Detector) ScoreAnalysis(a *webpage.Analysis) float64 {
	v := d.extractor.Extract(a)
	return d.ScoreVector(v)
}

// ScoreVector scores a precomputed full 212-feature vector.
func (d *Detector) ScoreVector(v []float64) float64 {
	return d.model.Score(d.projected(v))
}

// FeatureWeight pairs a feature name with its importance (how many
// ensemble splits use it).
type FeatureWeight struct {
	Name   string `json:"name"`
	Splits int    `json:"splits"`
}

// TopFeatures returns the n most-used features of the trained model in
// descending split-count order — a quick view of what the detector keys
// on (the paper's §VII-A discussion of which feature groups carry the
// signal).
func (d *Detector) TopFeatures(n int) []FeatureWeight {
	imp := d.model.FeatureImportance()
	names := features.Names()
	cols := d.columns
	out := make([]FeatureWeight, 0, len(imp))
	for i, splits := range imp {
		idx := i
		if cols != nil {
			idx = cols[i]
		}
		if idx < len(names) {
			out = append(out, FeatureWeight{Name: names[idx], Splits: splits})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Splits != out[b].Splits {
			return out[a].Splits > out[b].Splits
		}
		return out[a].Name < out[b].Name
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// detectorFile is the JSON persistence envelope.
type detectorFile struct {
	Threshold float64      `json:"threshold"`
	Set       features.Set `json:"feature_set"`
	Model     *ml.GBM      `json:"model"`
}

// Save persists the detector (model, threshold, feature set) as JSON.
// The popularity ranking is not embedded; supply it again at Load.
func (d *Detector) Save(w io.Writer) error {
	env := detectorFile{Threshold: d.threshold, Set: d.set, Model: d.model}
	if err := json.NewEncoder(w).Encode(env); err != nil {
		return fmt.Errorf("core: saving detector: %w", err)
	}
	return nil
}

// Load restores a detector saved with Save, wiring the given ranking.
func Load(r io.Reader, rank *ranking.List) (*Detector, error) {
	var env detectorFile
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: loading detector: %w", err)
	}
	if env.Model == nil || len(env.Model.Trees) == 0 {
		return nil, errors.New("core: loading detector: empty model")
	}
	d := &Detector{
		extractor: features.Extractor{Rank: rank},
		model:     env.Model,
		threshold: env.Threshold,
		set:       env.Set,
	}
	if d.threshold == 0 {
		d.threshold = DefaultThreshold
	}
	if d.set == 0 {
		d.set = features.All
	}
	if d.set != features.All {
		d.columns = features.Indices(d.set)
	}
	return d, nil
}

// Pipeline chains the detector with target identification (Section
// III-C): pages the detector flags are fed to target identification; a
// confirmed-legitimate verdict overturns the detector (false-positive
// removal, Section VI-D).
type Pipeline struct {
	// Detector is the phishing classifier. Required.
	Detector *Detector
	// Identifier is the target identification system. Required.
	Identifier *target.Identifier
}

// Outcome is the pipeline's final call for one page.
type Outcome struct {
	// Score is the detector confidence.
	Score float64 `json:"score"`
	// DetectorPhish is the detector's thresholded call.
	DetectorPhish bool `json:"detector_phish"`
	// TargetRun reports whether target identification ran (only for
	// detector positives).
	TargetRun bool `json:"target_run"`
	// Target is the identification result when TargetRun. omitzero
	// keeps the zero-value Result (whose verdict reads "suspicious")
	// out of API responses for pages where identification never ran.
	Target target.Result `json:"target,omitzero"`
	// FinalPhish is the pipeline's verdict after FP removal.
	FinalPhish bool `json:"final_phish"`
}
