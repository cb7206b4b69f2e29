// Command kptrain builds the synthetic corpus, trains the phishing
// detection model on its training campaigns (legTrain + phishTrain),
// prints a quick held-out evaluation and writes the world's artifact
// set: the model, the ranking list, the search index and the campaigns.
//
// Usage:
//
//	kptrain -out model/ -scale 25 -seed 1 -trees 100
//
// Its defaults are the self-train recipe, so `kpserve -model model/`
// serves what a self-trained kpserve of the same -scale and -seed
// serves. Training is deterministic for a fixed -seed: the same flags
// write the same bytes. To change the model a server scores with,
// restart it on a new directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"knowphish/internal/app"
	"knowphish/internal/core"
	"knowphish/internal/ml"
	"knowphish/internal/webgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kptrain:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out   = flag.String("out", "model", "artifact directory: model.json, ranking.csv, index.json and one JSON file per campaign")
		scale = flag.Int("scale", app.DefaultScale, "corpus scale divisor")
		seed  = flag.Int64("seed", app.DefaultSeed, "generation and training seed")
		trees = flag.Int("trees", app.DemoTrees, "boosting rounds")
	)
	flag.Parse()

	fmt.Printf("building corpus (scale 1/%d)...\n", *scale)
	corpus, err := app.BuildCorpus(*scale, *seed)
	if err != nil {
		return err
	}

	leg, phish := corpus.LegTrain.Clean(), corpus.PhishTrain.Clean()
	fmt.Printf("training on %d instances (%d legitimate, %d phishing)...\n", leg+phish, leg, phish)

	// The self-trained server's recipe (all feature groups, the paper's
	// threshold), at -trees rounds.
	det, err := app.TrainDemo(corpus, *seed, *trees)
	if err != nil {
		return err
	}

	// Held-out check on phishTest + the English set, scored over the
	// context-aware batch path (all cores).
	var reqs []core.ScoreRequest
	var truth []int
	for _, ex := range corpus.PhishTest.Examples {
		reqs = append(reqs, core.NewScoreRequest(ex.Snapshot))
		truth = append(truth, 1)
	}
	for _, ex := range corpus.LangTests[webgen.English].Examples {
		reqs = append(reqs, core.NewScoreRequest(ex.Snapshot))
		truth = append(truth, 0)
	}
	verdicts, err := det.ScoreBatchCtx(context.Background(), reqs, 0)
	if err != nil {
		return err
	}
	scores := make([]float64, len(verdicts))
	for i, v := range verdicts {
		scores[i] = v.Score
	}
	conf := ml.Evaluate(scores, truth, det.Threshold())
	auc := ml.AUC(scores, truth)
	fmt.Printf("held-out: precision=%.3f recall=%.3f fpr=%.4f auc=%.4f\n",
		conf.Precision(), conf.Recall(), conf.FPR(), auc)

	if err := app.WriteArtifacts(*out, corpus, det); err != nil {
		return err
	}
	fmt.Printf("artifacts written to %s (%d ranked domains, %d indexed documents)\n",
		*out, corpus.World.Ranking().Len(), corpus.Engine.Len())
	return nil
}
