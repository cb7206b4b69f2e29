// Clientside demonstrates the deployment model the paper argues for
// (Section IV-A "Usability" and the browser add-on of reference [3]): the
// detector runs entirely on the client from a persisted model file plus a
// local ranking list — no search engine, no centralized service, no
// browsing-history disclosure. Only the optional target identification
// step needs a search engine.
//
//	go run ./examples/clientside
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/ranking"
	"knowphish/internal/webpage"
)

func main() {
	log.SetFlags(0)

	// ---- Server side, once: train and export a model. ----------------
	corpus, err := dataset.Build(dataset.Config{
		Seed:              13,
		Scale:             50,
		SkipLanguageTests: true,
	})
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
	fmt.Printf("exported model (%d bytes) and ranking list (%d bytes)\n\n",
		modelFile.Len(), rankFile.Len())

	// ---- Client side: everything below uses only the two files and ---
	// ---- the page content the browser already has. -------------------
	rank, err := ranking.Read(&rankFile)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := core.Load(&modelFile, rank)
	if err != nil {
		log.Fatal(err)
	}

	// The browser hands over what it observed: URLs, redirects, HTML.
	brand := corpus.World.Brands[0]
	phishHTML := fmt.Sprintf(`<html><head><title>%s — Verify Account</title></head>
<body><h1>%s</h1>
<p>%s secure login verify your account details immediately</p>
<a href="https://www.%s/support">Support</a>
<img src="https://www.%s/static/logo.png">
<form action="/collect.php" method="post">
  <input type="text"><input type="password">
</form>
</body></html>`, brand.Name, brand.Name, brand.Name, brand.RDN(), brand.RDN())

	// A browser add-on wants bounded latency and a reason it can show
	// the user — the v2 ScoreCtx request carries both.
	ctx := context.Background()
	snap := webpage.FromHTML(
		"http://account-verify-check.top/"+brand.MLD+"/login.php",
		"http://account-verify-check.top/"+brand.MLD+"/login.php",
		nil, phishHTML)
	verdict, err := detector.ScoreCtx(ctx, core.NewScoreRequest(&snap,
		core.WithDeadline(200*time.Millisecond),
		core.WithExplain(core.ExplainTop),
		core.WithTopFeatures(4)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suspicious page score: %.3f -> phish=%v (threshold %.1f, scored in %.1fms)\n",
		verdict.Score, verdict.DetectorPhish, verdict.Threshold,
		float64(verdict.Timings.TotalNS)/1e6)
	fmt.Println("  evidence the add-on can show the user:")
	for _, ctr := range verdict.Explanation.Contributions {
		fmt.Printf("    %-34s %+0.3f\n", ctr.Name, ctr.LogOdds)
	}

	legitHTML := `<html><head><title>Harbor Field — Community Garden News</title></head>
<body><h1>HarborField</h1>
<p>harborfield welcomes the spring planting season with workshops and stories
from our harborfield community garden plots around town</p>
<a href="/events">Events</a> <a href="/plots">Plots</a> <a href="/about">About</a>
<img src="/img/garden.jpg">
</body></html>`
	snap = webpage.FromHTML(
		"https://www.harborfield.org/news",
		"https://www.harborfield.org/news",
		nil, legitHTML)
	verdict, err = detector.ScoreCtx(ctx, core.NewScoreRequest(&snap))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nordinary page score:   %.3f -> phish=%v\n",
		verdict.Score, verdict.DetectorPhish)

	// What does the model key on? (Section VII-A discussion.)
	fmt.Println("\ntop model features by ensemble splits:")
	for _, fw := range detector.TopFeatures(8) {
		fmt.Printf("  %-40s %d\n", fw.Name, fw.Splits)
	}
}
