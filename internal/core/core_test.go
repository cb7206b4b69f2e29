package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"knowphish/internal/dataset"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// corpus is shared across tests in this package; building it is the
// expensive part.
var sharedCorpus *dataset.Corpus

func corpus(t *testing.T) *dataset.Corpus {
	t.Helper()
	if sharedCorpus == nil {
		c, err := dataset.Build(dataset.Config{
			Seed:  21,
			Scale: 25,
			World: webgen.Config{Seed: 22, Brands: 80, RankedGenerics: 80, VocabularyWords: 120},
		})
		if err != nil {
			t.Fatalf("corpus: %v", err)
		}
		sharedCorpus = c
	}
	return sharedCorpus
}

func trainDetector(t *testing.T, c *dataset.Corpus, set features.Set) *Detector {
	t.Helper()
	snaps := append(c.LegTrain.Snapshots(), c.PhishTrain.Snapshots()...)
	labels := append(c.LegTrain.Labels(), c.PhishTrain.Labels()...)
	d, err := Train(snaps, labels, TrainConfig{
		Rank:       c.World.Ranking(),
		FeatureSet: set,
		GBM:        ml.GBMConfig{Trees: 60, MaxDepth: 4, Seed: 2},
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return d
}

// refScore is the slow reference path every faster one is compared to:
// a fresh analysis, a fresh full extraction, the model.
func refScore(d *Detector, s *webpage.Snapshot) float64 {
	return d.ScoreAnalysis(webpage.Analyze(s))
}

// refOutcome spells the pipeline of Section III-C out over refScore,
// independent of the stage machine AnalyzeCtx runs: threshold the
// detector, identify the target of positives, let a confirmed-legitimate
// target overturn the detector.
func refOutcome(p *Pipeline, s *webpage.Snapshot) Outcome {
	a := webpage.Analyze(s)
	o := Outcome{Score: p.Detector.ScoreAnalysis(a)}
	o.DetectorPhish = o.Score >= p.Detector.Threshold()
	o.FinalPhish = o.DetectorPhish
	if o.DetectorPhish {
		o.TargetRun = true
		o.Target = p.Identifier.Identify(a)
		o.FinalPhish = o.Target.Verdict != target.VerdictLegitimate
	}
	return o
}

func TestTrainAndClassify(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	if d.Threshold() != DefaultThreshold {
		t.Errorf("threshold = %v, want %v", d.Threshold(), DefaultThreshold)
	}
	if d.FeatureSet() != features.All {
		t.Errorf("feature set = %v, want All", d.FeatureSet())
	}

	// Held-out evaluation: phishTest vs English test set.
	var scores []float64
	var labels []int
	for _, ex := range c.PhishTest.Examples {
		scores = append(scores, refScore(d, ex.Snapshot))
		labels = append(labels, 1)
	}
	english := c.LangTests[webgen.English]
	for _, ex := range english.Examples {
		scores = append(scores, refScore(d, ex.Snapshot))
		labels = append(labels, 0)
	}
	conf := ml.Evaluate(scores, labels, d.Threshold())
	if rec := conf.Recall(); rec < 0.80 {
		t.Errorf("held-out recall = %.3f, want >= 0.80 (%s)", rec, conf)
	}
	if fpr := conf.FPR(); fpr > 0.02 {
		t.Errorf("held-out FPR = %.4f, want <= 0.02 (%s)", fpr, conf)
	}
	if auc := ml.AUC(scores, labels); auc < 0.97 {
		t.Errorf("held-out AUC = %.4f, want >= 0.97", auc)
	}
	for _, s := range scores {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training: want error")
	}
	snaps := []*webpage.Snapshot{{}}
	if _, err := Train(snaps, []int{0, 1}, TrainConfig{}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Train(snaps, []int{0}, TrainConfig{}); err == nil {
		t.Error("single class: want error")
	}
}

func TestFeatureSubsetDetector(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, features.F1)
	if d.FeatureSet() != features.F1 {
		t.Errorf("feature set = %v", d.FeatureSet())
	}
	// Must classify without panicking and stay in range.
	s := refScore(d, c.PhishTest.Examples[0].Snapshot)
	if s < 0 || s > 1 {
		t.Errorf("score = %v", s)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf, c.World.Ranking())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := 0; i < 10 && i < len(c.PhishTest.Examples); i++ {
		snap := c.PhishTest.Examples[i].Snapshot
		if a, b := refScore(d, snap), refScore(back, snap); math.Abs(a-b) > 1e-12 {
			t.Fatalf("roundtrip score mismatch: %v vs %v", a, b)
		}
	}
	if back.Threshold() != d.Threshold() || back.FeatureSet() != d.FeatureSet() {
		t.Error("metadata lost in roundtrip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("nope"), nil); err == nil {
		t.Error("garbage: want error")
	}
	if _, err := Load(strings.NewReader(`{"threshold":0.7,"model":null}`), nil); err == nil {
		t.Error("empty model: want error")
	}
	if _, err := Load(strings.NewReader(`{"threshold":0.7,"model":{"feature_count":0,"trees":[]}}`), nil); err == nil {
		t.Error("model without trees: want error")
	}
}

func TestPipelineReducesFalsePositives(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	p := &Pipeline{Detector: d, Identifier: target.New(c.Engine)}

	english := c.LangTests[webgen.English]
	detectorFPs, pipelineFPs := 0, 0
	for _, ex := range english.Examples {
		out := refOutcome(p, ex.Snapshot)
		if out.DetectorPhish {
			detectorFPs++
			if out.TargetRun && out.Target.Verdict.String() == "" {
				t.Error("target run produced empty verdict")
			}
		}
		if out.FinalPhish {
			pipelineFPs++
		}
		if !out.DetectorPhish && out.TargetRun {
			t.Error("target identification ran on a detector negative")
		}
	}
	if pipelineFPs > detectorFPs {
		t.Errorf("pipeline FPs %d > detector FPs %d", pipelineFPs, detectorFPs)
	}
	t.Logf("FP reduction: detector=%d pipeline=%d over %d pages", detectorFPs, pipelineFPs, len(english.Examples))

	// Pipeline must keep catching phish.
	kept := 0
	for _, ex := range c.PhishTest.Examples {
		if refOutcome(p, ex.Snapshot).FinalPhish {
			kept++
		}
	}
	if rate := float64(kept) / float64(len(c.PhishTest.Examples)); rate < 0.75 {
		t.Errorf("pipeline phish retention = %.2f, want >= 0.75", rate)
	}
}

func TestDefaultGBMConfig(t *testing.T) {
	cfg := DefaultGBMConfig()
	if cfg.Trees < 50 || cfg.MaxDepth < 2 || cfg.LearningRate <= 0 {
		t.Errorf("suspicious defaults: %+v", cfg)
	}
}

func TestScoreVectorProjection(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, features.F234)
	e := features.Extractor{Rank: c.World.Ranking()}
	snap := c.PhishTest.Examples[0].Snapshot
	full := e.ExtractSnapshot(snap)
	if a, b := d.ScoreVector(full), refScore(d, snap); math.Abs(a-b) > 1e-12 {
		t.Errorf("ScoreVector disagrees with ScoreAnalysis: %v vs %v", a, b)
	}
}
