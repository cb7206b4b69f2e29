// Quickstart: train a detector on a small synthetic corpus, classify a
// legitimate page and a phishing page, and identify the phish's target.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

func main() {
	log.SetFlags(0)

	// 1. Build the evaluation corpus: a synthetic web with brands,
	// legitimate sites and phishing campaigns (Table V of the paper,
	// scaled down 1/50 for a fast start).
	corpus, err := dataset.Build(dataset.Config{
		Seed:              1,
		Scale:             50,
		SkipLanguageTests: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train the detector on legTrain + phishTrain — a few hundred
	// pages. The paper's point: this small training set generalizes.
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	detector, err := core.Train(snaps, labels, core.TrainConfig{
		Rank: corpus.World.Ranking(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d pages, threshold %.1f\n\n", len(snaps), detector.Threshold())

	// 3. Assemble the pipeline: detection + target identification.
	pipeline := &core.Pipeline{
		Detector:   detector,
		Identifier: target.New(corpus.Engine),
	}

	// 4. Classify a fresh legitimate page and a fresh phish.
	rng := rand.New(rand.NewSource(42))
	world := corpus.World

	ctx := context.Background()
	legit := world.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
	legitSnap, err := crawl.VisitSite(world, legit)
	if err != nil {
		log.Fatal(err)
	}
	report(analyze(ctx, pipeline, legitSnap), legitSnap)

	phish := world.NewPhishSite(rng, world.RandomPhishOptions(rng))
	phishSnap, err := crawl.VisitSite(world, phish)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(ground truth: phish mimicking %s)\n", phish.TargetRDN)
	report(analyze(ctx, pipeline, phishSnap), phishSnap)
}

// analyze runs the v2 pipeline entry point: context-aware, with the top
// per-feature evidence attached to the verdict.
func analyze(ctx context.Context, p *core.Pipeline, snap *webpage.Snapshot) core.Verdict {
	v, err := p.AnalyzeCtx(ctx, core.NewScoreRequest(snap,
		core.WithExplain(core.ExplainTop),
		core.WithTopFeatures(3)))
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func report(v core.Verdict, snap *webpage.Snapshot) {
	fmt.Printf("page:    %s\n", snap.StartingURL)
	fmt.Printf("score:   %.3f\n", v.Score)
	fmt.Printf("verdict: %s (threshold %.1f)\n", v.Label, v.Threshold)
	if v.TargetRun {
		fmt.Printf("target identification: %s\n", v.Target.Verdict)
		for i, c := range v.Target.Candidates {
			if i == 3 {
				break
			}
			fmt.Printf("  candidate %d: %s (weight %d)\n", i+1, c.RDN, c.Count)
		}
	}
	if v.Explanation != nil {
		fmt.Println("why (top feature evidence, log-odds):")
		for _, ctr := range v.Explanation.Contributions {
			fmt.Printf("  %-34s %+0.3f (value %.2f)\n", ctr.Name, ctr.LogOdds, ctr.Value)
		}
	}
	fmt.Println()
}
