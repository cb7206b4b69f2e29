package knowphish_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"knowphish"
	"knowphish/internal/webgen"
)

// TestPublicAPIEndToEnd drives the whole library exactly the way the
// README quickstart does: build a corpus, train, classify, identify.
func TestPublicAPIEndToEnd(t *testing.T) {
	corpus, err := knowphish.BuildCorpus(knowphish.CorpusConfig{
		Seed:              61,
		Scale:             100,
		World:             knowphish.WorldConfig{Seed: 62, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
		SkipLanguageTests: true,
	})
	if err != nil {
		t.Fatalf("BuildCorpus: %v", err)
	}

	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	det, err := knowphish.Train(snaps, labels, knowphish.TrainConfig{
		Rank: corpus.World.Ranking(),
		GBM:  knowphish.GBMConfig{Trees: 50, MaxDepth: 4, Seed: 3},
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if det.Threshold() != knowphish.DefaultThreshold {
		t.Errorf("threshold = %v", det.Threshold())
	}

	pipe := &knowphish.Pipeline{
		Detector:   det,
		Identifier: knowphish.NewTargetIdentifier(corpus.Engine),
	}

	caught := 0
	for _, ex := range corpus.PhishTest.Examples {
		v, err := pipe.AnalyzeCtx(context.Background(), knowphish.NewScoreRequest(ex.Snapshot))
		if err != nil {
			t.Fatalf("AnalyzeCtx: %v", err)
		}
		if v.FinalPhish {
			caught++
		}
	}
	if rate := float64(caught) / float64(len(corpus.PhishTest.Examples)); rate < 0.7 {
		t.Errorf("pipeline catch rate = %.2f, want >= 0.7", rate)
	}

	// Persistence through the facade.
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := knowphish.LoadDetector(&buf, corpus.World.Ranking())
	if err != nil {
		t.Fatalf("LoadDetector: %v", err)
	}
	snap := corpus.PhishTest.Examples[0].Snapshot
	req := knowphish.NewScoreRequest(snap)
	va, errA := det.ScoreCtx(context.Background(), req)
	vb, errB := back.ScoreCtx(context.Background(), req)
	if errA != nil || errB != nil || math.Abs(va.Score-vb.Score) > 1e-12 {
		t.Errorf("roundtrip score mismatch: %v (%v) vs %v (%v)", va.Score, errA, vb.Score, errB)
	}
}

func TestSnapshotFromHTML(t *testing.T) {
	snap := knowphish.SnapshotFromHTML(
		"http://evil.example/x",
		"http://evil.example/x",
		nil,
		`<title>NovaBank Login</title><body>novabank secure login
		 <a href="https://www.novabank.com/help">help</a>
		 <form action="/steal.php"><input type="text"><input type="password"></form></body>`,
	)
	if snap.Title != "NovaBank Login" {
		t.Errorf("Title = %q", snap.Title)
	}
	if snap.InputCount != 2 {
		t.Errorf("InputCount = %d", snap.InputCount)
	}
	if len(snap.HREFLinks) != 1 {
		t.Errorf("HREFLinks = %v", snap.HREFLinks)
	}
}

func TestWorldHelpers(t *testing.T) {
	w := knowphish.NewWorld(knowphish.WorldConfig{Seed: 63, Brands: 20, RankedGenerics: 30, VocabularyWords: 60})
	if len(w.Brands) != 20 {
		t.Fatalf("brands = %d", len(w.Brands))
	}
	engine := knowphish.NewSearchEngine()
	if engine.Len() != 0 {
		t.Error("fresh engine not empty")
	}
	if knowphish.NewOCR() == nil {
		t.Error("NewOCR returned nil")
	}
	rng := rand.New(rand.NewSource(1))
	site := w.NewPhishSite(rng, webgen.PhishOptions{})
	snap, err := knowphish.VisitSite(w, site)
	if err != nil {
		t.Fatalf("VisitSite: %v", err)
	}
	if snap.StartingURL == "" || snap.InputCount < 2 {
		t.Errorf("phish snapshot malformed: %+v", snap)
	}
}
