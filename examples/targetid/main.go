// Targetid walks through the target identification process of Section V:
// keyterm extraction (boosted prominent, prominent, OCR prominent terms),
// target-FQDN guessing, the search-engine steps, and candidate ranking —
// including the OCR fallback on an image-only phishing page.
//
// This example drives the Identifier directly to expose each step. In a
// full deployment identification runs inside Pipeline.AnalyzeCtx (its
// outcome lands in Verdict.Target) or over HTTP at POST /v2/target; a
// request can skip it with core.WithoutTargetID when only the
// detector score matters.
//
//	go run ./examples/targetid
package main

import (
	"fmt"
	"log"
	"math/rand"

	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

func main() {
	log.SetFlags(0)

	corpus, err := dataset.Build(dataset.Config{
		Seed:              3,
		Scale:             50,
		SkipLanguageTests: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	world := corpus.World
	identifier := target.New(corpus.Engine)
	rng := rand.New(rand.NewSource(9))

	brand := world.Brands[2]
	fmt.Printf("target brand: %s (%s)\n\n", brand.Name, brand.RDN())

	// Case 1: a typical phish with text content.
	fmt.Println("--- case 1: ordinary phishing page ---")
	site := world.NewPhishSite(rng, webgen.PhishOptions{Target: brand, Hosting: webgen.HostDedicated})
	snap, err := crawl.VisitSite(world, site)
	if err != nil {
		log.Fatal(err)
	}
	walkthrough(identifier, snap)

	// Case 2: an image-only phish — keyterm extraction from HTML fails,
	// the OCR prominent terms path (step 4) takes over.
	fmt.Println("--- case 2: image-only phishing page (OCR fallback) ---")
	site = world.NewPhishSite(rng, webgen.PhishOptions{Target: brand, ImageOnly: true, MinimalText: true})
	snap, err = crawl.VisitSite(world, site)
	if err != nil {
		log.Fatal(err)
	}
	walkthrough(identifier, snap)

	// Case 3: a legitimate page — the process confirms it and stops.
	fmt.Println("--- case 3: legitimate page ---")
	legit := world.NewLegitSite(rng, webgen.LegitOptions{BrandVisit: true})
	snap, err = crawl.VisitSite(world, legit)
	if err != nil {
		log.Fatal(err)
	}
	walkthrough(identifier, snap)
}

func walkthrough(id *target.Identifier, snap *webpage.Snapshot) {
	a := webpage.Analyze(snap)
	kt := target.ExtractKeyterms(a, 5)
	fmt.Printf("page: %s\n", snap.StartingURL)
	fmt.Printf("boosted prominent terms: %v\n", kt.Boosted)
	fmt.Printf("prominent terms:         %v\n", kt.Prominent)

	res := id.Identify(a)
	fmt.Printf("verdict after step %d: %s", res.StepsUsed, res.Verdict)
	if res.UsedOCR {
		fmt.Printf(" (used OCR prominent terms: %v)", res.OCRProminent)
	}
	fmt.Println()
	for i, c := range res.Candidates {
		if i == 3 {
			break
		}
		fmt.Printf("  candidate %d: %s (weight %d)\n", i+1, c.RDN, c.Count)
	}
	fmt.Println()
}
