// Command knowphish runs the full detection + target-identification
// pipeline interactively against the synthetic web: it generates pages
// (or loads snapshots from a kpgen dump), classifies each one, and — for
// detector positives — names the mimicked target.
//
// Usage:
//
//	knowphish -demo 10               # classify 10 fresh pages
//	knowphish -snapshots phishTest.json -limit 20
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"knowphish/internal/app"
	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "knowphish:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		demo      = flag.Int("demo", 10, "classify this many freshly generated pages")
		snapsPath = flag.String("snapshots", "", "classify snapshots from a kpgen campaign JSON instead")
		limit     = flag.Int("limit", 20, "max snapshots to classify from -snapshots")
		scale     = flag.Int("scale", 25, "corpus scale for the training pass")
		seed      = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	fmt.Printf("building world and training detector (scale 1/%d)...\n", *scale)
	corpus, err := app.BuildCorpus(*scale, *seed)
	if err != nil {
		return err
	}
	det, _, err := app.TrainDemo(corpus, *seed)
	if err != nil {
		return err
	}
	pipe := &core.Pipeline{Detector: det, Identifier: target.New(corpus.Engine)}

	if *snapsPath != "" {
		return classifyFile(pipe, *snapsPath, *limit)
	}
	return classifyDemo(pipe, corpus, *demo, *seed)
}

func classifyDemo(pipe *core.Pipeline, corpus *dataset.Corpus, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 9))
	w := corpus.World
	for i := 0; i < n; i++ {
		var site *webgen.Site
		truth := "legitimate"
		if i%2 == 1 {
			site = w.NewPhishSite(rng, w.RandomPhishOptions(rng))
			truth = fmt.Sprintf("phish targeting %s", site.TargetRDN)
		} else {
			site = w.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		}
		snap, err := crawl.VisitSite(w, site)
		if err != nil {
			return err
		}
		v, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(snap))
		if err != nil {
			return err
		}
		printOutcome(v.Outcome, snap, truth)
	}
	return nil
}

func classifyFile(pipe *core.Pipeline, path string, limit int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var camp dataset.Campaign
	if err := json.NewDecoder(f).Decode(&camp); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	for i, ex := range camp.Examples {
		if i >= limit {
			break
		}
		truth := "legitimate"
		if ex.Label == 1 {
			truth = fmt.Sprintf("phish targeting %s", ex.TargetRDN)
		}
		v, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(ex.Snapshot))
		if err != nil {
			return err
		}
		printOutcome(v.Outcome, ex.Snapshot, truth)
	}
	return nil
}

func printOutcome(out core.Outcome, snap *webpage.Snapshot, truth string) {
	verdict := "LEGITIMATE"
	if out.FinalPhish {
		verdict = "PHISH"
	}
	fmt.Printf("%-10s score=%.3f  %s\n", verdict, out.Score, snap.StartingURL)
	fmt.Printf("           truth: %s\n", truth)
	if out.TargetRun {
		fmt.Printf("           target-id: %s", out.Target.Verdict)
		if len(out.Target.Candidates) > 0 {
			fmt.Printf(" candidates:")
			for i, c := range out.Target.Candidates {
				if i == 3 {
					break
				}
				fmt.Printf(" %s", c.RDN)
			}
		}
		fmt.Println()
	}
}
