package knowphish_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// trained builds the corpus cfg describes and trains a detector on its
// legTrain and phishTrain sets, as kptrain does.
func trained(cfg dataset.Config) (*dataset.Corpus, *core.Detector) {
	corpus, err := dataset.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	detector, err := core.Train(snaps, labels, core.TrainConfig{Rank: corpus.World.Ranking()})
	if err != nil {
		log.Fatal(err)
	}
	return corpus, detector
}

// Train a detector on a small synthetic corpus (Table V scaled 1/50),
// classify a fresh legitimate page and a fresh phish through the
// pipeline, and identify the phish's target.
func Example_quickstart() {
	corpus, detector := trained(dataset.Config{Seed: 1, Scale: 50, SkipLanguageTests: true})
	fmt.Printf("trained on %d pages, threshold %.1f\n",
		corpus.LegTrain.Clean()+corpus.PhishTrain.Clean(), detector.Threshold())
	pipeline := &core.Pipeline{Detector: detector, Identifier: target.New(corpus.Engine)}

	world := corpus.World
	rng := rand.New(rand.NewSource(42))
	legit := world.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
	phish := world.NewPhishSite(rng, world.RandomPhishOptions(rng))
	fmt.Printf("(ground truth: phish mimicking %s)\n", phish.TargetRDN)
	for _, site := range []*webgen.Site{legit, phish} {
		snap, err := crawl.VisitSite(world, site)
		if err != nil {
			log.Fatal(err)
		}
		v, err := pipeline.AnalyzeCtx(context.Background(), core.ScoreRequest{Snapshot: snap,
			Options: core.Options{Explain: core.ExplainTop, TopFeatures: 3}})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npage: %s\nscore %.3f: %s\n", snap.StartingURL, v.Score, v.Label)
		if v.TargetRun {
			fmt.Println("target identification:", v.Target.Verdict)
			for i, c := range v.Target.Candidates[:min(3, len(v.Target.Candidates))] {
				fmt.Printf("  candidate %d: %s (weight %d)\n", i+1, c.RDN, c.Count)
			}
		}
		for _, ctr := range v.Explanation.Contributions {
			fmt.Printf("  %-34s %+0.3f (value %.2f)\n", ctr.Name, ctr.LogOdds, ctr.Value)
		}
	}
	// Output:
	// trained on 110 pages, threshold 0.7
	// (ground truth: phish mimicking pioneerbank79.it)
	//
	// page: https://www.termentridgeward.com/billing
	// score 0.000: legitimate
	//   f2.hellinger.Dtitle_Dextrdn        -1.913 (value 1.00)
	//   f2.hellinger.Dtext_Dextrdn         -1.886 (value 1.00)
	//   f4.int_ratio_href                  -1.250 (value 0.80)
	//
	// page: http://shrtr.co/mGDTQm9
	// score 1.000: phishing
	// target identification: phish
	//   candidate 1: pioneerbank79.it (weight 10)
	//   candidate 2: pioneercredit86.fr (weight 2)
	//   candidate 3: pioneertrust.com (weight 1)
	//   f2.hellinger.Dtitle_Dextrdn        +3.265 (value 0.29)
	//   f1.intlink.url_terms.mean          +2.127 (value 3.00)
	//   f4.int_ratio_href                  +1.791 (value 0.25)
}

// Walk the target identification process of Section V: keyterm
// extraction, the search-engine steps and candidate ranking. The
// image-only phish still names its target in its HTML, so step 3
// decides it and the OCR fallback (step 4) does not run. A pipeline
// runs the same Identify on every detector positive.
func Example_targetIdentification() {
	corpus, err := dataset.Build(dataset.Config{Seed: 3, Scale: 50, SkipLanguageTests: true})
	if err != nil {
		log.Fatal(err)
	}
	world := corpus.World
	identifier := target.New(corpus.Engine)
	rng := rand.New(rand.NewSource(9))
	brand := world.Brands[2]
	fmt.Printf("target brand: %s (%s)\n", brand.Name, brand.RDN())

	cases := []struct {
		name string
		site *webgen.Site
	}{
		{"ordinary phishing page", world.NewPhishSite(rng, webgen.PhishOptions{Target: brand, Hosting: webgen.HostDedicated})},
		{"image-only phishing page", world.NewPhishSite(rng, webgen.PhishOptions{Target: brand, ImageOnly: true, MinimalText: true})},
		{"legitimate page", world.NewLegitSite(rng, webgen.LegitOptions{BrandVisit: true})},
	}
	for _, tc := range cases {
		snap, err := crawl.VisitSite(world, tc.site)
		if err != nil {
			log.Fatal(err)
		}
		a := webpage.Analyze(snap)
		kt := target.ExtractKeyterms(a, 5)
		fmt.Printf("\n%s: %s\n", tc.name, snap.StartingURL)
		fmt.Printf("boosted prominent terms: %v\n", kt.Boosted)
		fmt.Printf("prominent terms:         %v\n", kt.Prominent)
		res := identifier.Identify(a)
		fmt.Printf("verdict after step %d: %s\n", res.StepsUsed, res.Verdict)
		for i, c := range res.Candidates[:min(3, len(res.Candidates))] {
			fmt.Printf("  candidate %d: %s (weight %d)\n", i+1, c.RDN, c.Count)
		}
	}
	// Output:
	// target brand: HarborTrust (harbortrust.de)
	//
	// ordinary phishing page: http://www.harbortrust.de.verify-help.online/bank
	// boosted prominent terms: [harbortrust online help verify www]
	// prominent terms:         [harbortrust online help verify www]
	// verdict after step 3: phish
	//   candidate 1: harbortrust.de (weight 10)
	//
	// image-only phishing page: http://verify-card-485.online/identity/billing.php
	// boosted prominent terms: [harbortrust identity billing card online]
	// prominent terms:         [harbortrust identity billing card online]
	// verdict after step 3: phish
	//   candidate 1: harbortrust.de (weight 6)
	//
	// legitimate page: http://www.novacredit.it/
	// boosted prominent terms: [novacredit www inc]
	// prominent terms:         [novacredit www inc card service]
	// verdict after step 1: legitimate
}

// Train on English legitimate pages only and test against legitimate
// pages in six languages, with the same phishing test set (Section
// VI-C, Table VI).
func Example_languageIndependence() {
	corpus, detector := trained(dataset.Config{Seed: 7, Scale: 25})
	fmt.Println("Language     Pre.   Recall  FPR      AUC")
	for _, lang := range webgen.Languages {
		var scores []float64
		var truth []int
		for i, camp := range []*dataset.Campaign{corpus.PhishTest, corpus.LangTests[lang]} {
			for _, ex := range camp.Examples {
				scores = append(scores, detector.ScoreAnalysis(webpage.Analyze(ex.Snapshot)))
				truth = append(truth, 1-i)
			}
		}
		conf := ml.Evaluate(scores, truth, detector.Threshold())
		fmt.Printf("%-12s %-6.3f %-7.3f %-8.4f %.3f\n",
			lang, conf.Precision(), conf.Recall(), conf.FPR(), ml.AUC(scores, truth))
	}
	// Output:
	// Language     Pre.   Recall  FPR      AUC
	// english      0.936  0.917   0.0008   0.988
	// french       1.000  0.917   0.0000   0.986
	// german       1.000  0.917   0.0000   0.988
	// italian      0.978  0.917   0.0025   0.988
	// portuguese   1.000  0.917   0.0000   0.985
	// spanish      1.000  0.917   0.0000   0.989
}
