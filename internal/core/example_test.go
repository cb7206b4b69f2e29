package core_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/ranking"
	"knowphish/internal/webpage"
)

// The deployment the paper argues for (Section IV-A): the detector runs
// on the client from a persisted model and a local ranking list, with no
// search engine, no central service and no browsing history sent
// anywhere. Only target identification needs a search engine. This
// package builds for GOOS=js GOARCH=wasm, the browser.
func Example_clientSide() {
	// Server side, once: train and export a model.
	corpus, err := dataset.Build(dataset.Config{Seed: 13, Scale: 50, SkipLanguageTests: true})
	if err != nil {
		log.Fatal(err)
	}
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	trained, err := core.Train(snaps, labels, core.TrainConfig{Rank: corpus.World.Ranking()})
	if err != nil {
		log.Fatal(err)
	}
	var modelFile, rankFile bytes.Buffer
	if err := trained.Save(&modelFile); err != nil {
		log.Fatal(err)
	}
	if _, err := corpus.World.Ranking().WriteTo(&rankFile); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported model (%d bytes) and ranking list (%d bytes)\n", modelFile.Len(), rankFile.Len())

	// Client side: only the two files and what the browser observed.
	rank, err := ranking.Read(&rankFile)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := core.Load(&modelFile, rank)
	if err != nil {
		log.Fatal(err)
	}
	brand := corpus.World.Brands[0]
	phishURL := "http://account-verify-check.top/" + brand.MLD + "/login.php"
	phish := webpage.FromHTML(phishURL, phishURL, nil, fmt.Sprintf(`<html><head><title>%s — Verify Account</title></head>
<body><h1>%s</h1>
<p>%s secure login verify your account details immediately</p>
<a href="https://www.%s/support">Support</a>
<img src="https://www.%s/static/logo.png">
<form action="/collect.php" method="post">
  <input type="text"><input type="password">
</form>
</body></html>`, brand.Name, brand.Name, brand.Name, brand.RDN(), brand.RDN()))
	legitURL := "https://www.harborfield.org/news"
	legit := webpage.FromHTML(legitURL, legitURL, nil, `<html><head><title>Harbor Field — Community Garden News</title></head>
<body><h1>HarborField</h1>
<p>harborfield welcomes the spring planting season with workshops and stories
from our harborfield community garden plots around town</p>
<a href="/events">Events</a> <a href="/plots">Plots</a> <a href="/about">About</a>
<img src="/img/garden.jpg">
</body></html>`)

	ctx := context.Background()
	// The evidence is what an add-on can show the user.
	v, err := detector.ScoreCtx(ctx, core.ScoreRequest{Snapshot: &phish,
		Options: core.Options{Explain: core.ExplainTop, TopFeatures: 4}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suspicious page score: %.3f -> phish=%v (threshold %.1f)\n", v.Score, v.DetectorPhish, v.Threshold)
	for _, ctr := range v.Explanation.Contributions {
		fmt.Printf("  %-34s %+0.3f\n", ctr.Name, ctr.LogOdds)
	}
	if v, err = detector.ScoreCtx(ctx, core.NewScoreRequest(&legit)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ordinary page score:   %.3f -> phish=%v\n", v.Score, v.DetectorPhish)

	// What the model keys on (Section VII-A).
	fmt.Println("top model features by ensemble splits:")
	for _, fw := range detector.TopFeatures(8) {
		fmt.Printf("  %-40s %d\n", fw.Name, fw.Splits)
	}
	// Output:
	// exported model (63287 bytes) and ranking list (59424 bytes)
	// suspicious page score: 1.000 -> phish=true (threshold 0.7)
	//   f4.int_ratio_href                  +2.915
	//   f1.intlink.url_len.std             +1.897
	//   f2.hellinger.Dtitle_Dextrdn        +1.824
	//   f3.mld_in.start.Dtext              +1.654
	// ordinary page score:   0.000 -> phish=false
	// top model features by ensemble splits:
	//   f2.hellinger.Dtext_Dstartrdn             60
	//   f1.land.url_terms                        53
	//   f4.int_ratio_href                        53
	//   f1.intlink.url_len.std                   47
	//   f2.hellinger.Dtext_Dextlink              28
	//   f5.text_terms                            27
	//   f1.start.mld_terms                       26
	//   f2.hellinger.Dtext_Dextrdn               24
}
