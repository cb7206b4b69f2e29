package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"knowphish/internal/dataset"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/webgen"
)

// TestFullPipelineDeterminism rebuilds the corpus and retrains the model
// from the same seeds and requires bit-identical scores — the repository-
// wide guarantee that every table regenerates exactly — and the same saved
// model whatever the core count the corpus and the training matrix were
// built on. A different training seed fits different trees and saves
// different bytes, so equal bytes are evidence of one model.
func TestFullPipelineDeterminism(t *testing.T) {
	train := func(c *dataset.Corpus, seed int64) *Detector {
		snaps := append(c.LegTrain.Snapshots(), c.PhishTrain.Snapshots()...)
		labels := append(c.LegTrain.Labels(), c.PhishTrain.Labels()...)
		d, err := Train(snaps, labels, TrainConfig{
			GBM:  ml.GBMConfig{Trees: 30, MaxDepth: 3, Seed: seed},
			Rank: c.World.Ranking(),
		})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		return d
	}
	build := func(procs int) (*dataset.Corpus, *Detector) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c, err := dataset.Build(dataset.Config{
			Seed:              77,
			Scale:             100,
			World:             webgen.Config{Seed: 78, Brands: 40, RankedGenerics: 40, VocabularyWords: 80},
			SkipLanguageTests: true,
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return c, train(c, 5)
	}
	saved := func(d *Detector) []byte {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	c1, d1 := build(1)
	c2, d2 := build(4)
	m1, m2 := saved(d1), saved(d2)
	if !bytes.Equal(m1, m2) {
		t.Fatalf("GOMAXPROCS 1 then 4: saved detectors differ (%d vs %d bytes)", len(m1), len(m2))
	}
	if d6 := train(c1, 6); bytes.Equal(saved(d6), m1) || reflect.DeepEqual(d6.model.Trees, d1.model.Trees) {
		t.Fatal("training seeds 5 and 6 fitted identical trees or saved identical detectors")
	}
	if len(c1.PhishTest.Examples) != len(c2.PhishTest.Examples) {
		t.Fatal("corpus sizes differ across builds")
	}
	for i, ex := range c1.PhishTest.Examples {
		a := refScore(d1, ex.Snapshot)
		b := refScore(d2, c2.PhishTest.Examples[i].Snapshot)
		if a != b {
			t.Fatalf("example %d: scores differ across identical builds: %v vs %v", i, a, b)
		}
	}
}

func TestTopFeatures(t *testing.T) {
	c := corpus(t)
	d := trainDetector(t, c, 0)
	top := d.TopFeatures(10)
	if len(top) != 10 {
		t.Fatalf("TopFeatures = %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Splits > top[i-1].Splits {
			t.Fatal("TopFeatures not sorted")
		}
	}
	if top[0].Splits == 0 {
		t.Fatal("top feature has zero splits")
	}
	// Names must be valid feature names.
	valid := map[string]bool{}
	for _, n := range features.Names() {
		valid[n] = true
	}
	for _, fw := range top {
		if !valid[fw.Name] {
			t.Errorf("unknown feature name %q", fw.Name)
		}
	}
	// A projected detector reports names from its own subset.
	dF3 := trainDetector(t, c, features.F3)
	for _, fw := range dF3.TopFeatures(5) {
		if fw.Splits > 0 && fw.Name[:2] != "f3" {
			t.Errorf("F3 detector reports foreign feature %q", fw.Name)
		}
	}
}
