// Adaptive pits the evasion techniques of Section VII-C against the
// detector: IP-based URLs, minimal text, image-only pages, avoiding
// external links, typosquatted domains, and URL shorteners. It reports
// per-technique recall, reproducing the paper's discussion of which
// evasions cost the attacker the most.
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/webgen"
)

func main() {
	log.SetFlags(0)

	corpus, err := dataset.Build(dataset.Config{
		Seed:              5,
		Scale:             25,
		SkipLanguageTests: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	detector, err := core.Train(snaps, labels, core.TrainConfig{Rank: corpus.World.Ranking()})
	if err != nil {
		log.Fatal(err)
	}
	world := corpus.World
	rng := rand.New(rand.NewSource(11))

	techniques := []struct {
		name string
		opts func() webgen.PhishOptions
	}{
		{"baseline mixture", func() webgen.PhishOptions { return world.RandomPhishOptions(rng) }},
		{"IP-based URL", func() webgen.PhishOptions { return webgen.PhishOptions{Hosting: webgen.HostIP} }},
		{"typosquat domain", func() webgen.PhishOptions { return webgen.PhishOptions{Hosting: webgen.HostTyposquat} }},
		{"minimal text", func() webgen.PhishOptions {
			return webgen.PhishOptions{Hosting: webgen.HostDedicated, MinimalText: true}
		}},
		{"image-only page", func() webgen.PhishOptions { return webgen.PhishOptions{Hosting: webgen.HostDedicated, ImageOnly: true} }},
		{"no external links", func() webgen.PhishOptions {
			return webgen.PhishOptions{Hosting: webgen.HostDedicated, NoExternalLinks: true}
		}},
		{"all evasions at once", func() webgen.PhishOptions {
			return webgen.PhishOptions{Hosting: webgen.HostIP, MinimalText: true, NoExternalLinks: true}
		}},
		{"shortener chain", func() webgen.PhishOptions {
			return webgen.PhishOptions{Hosting: webgen.HostDedicated, UseShortener: true}
		}},
		{"stealth kit", func() webgen.PhishOptions {
			return webgen.PhishOptions{Stealth: true}
		}},
		{"misspelled lure", func() webgen.PhishOptions {
			return webgen.PhishOptions{Hosting: webgen.HostDedicated, MisspelledLure: true}
		}},
	}

	const perTechnique = 60
	ctx := context.Background()
	fmt.Printf("%-22s %-8s %s\n", "Evasion technique", "Recall", "(phish caught / generated)")
	for _, tech := range techniques {
		// Score each technique's cohort over the context-aware batch
		// path — the v2 entry point a serving deployment uses.
		reqs := make([]core.ScoreRequest, 0, perTechnique)
		for i := 0; i < perTechnique; i++ {
			site := world.NewPhishSite(rng, tech.opts())
			snap, err := crawl.VisitSite(world, site)
			if err != nil {
				log.Fatal(err)
			}
			reqs = append(reqs, core.NewScoreRequest(snap))
		}
		verdicts, err := detector.ScoreBatchCtx(ctx, reqs, 0)
		if err != nil {
			log.Fatal(err)
		}
		caught := 0
		for _, v := range verdicts {
			if v.DetectorPhish {
				caught++
			}
		}
		fmt.Printf("%-22s %-8.2f (%d/%d)\n", tech.name, float64(caught)/perTechnique, caught, perTechnique)
	}
	fmt.Println("\npaper's finding (Section VII): individual evasions barely dent recall;")
	fmt.Println("IP URLs were the weakest spot (0.76 recall on 25 URLs), and stacking")
	fmt.Println("evasions degrades the phish itself more than the detector.")
}
