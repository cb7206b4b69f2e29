// Command kptrain trains the phishing detection model on the synthetic
// training campaigns (legTrain + phishTrain) and saves it as JSON, along
// with a quick held-out evaluation.
//
// Usage:
//
//	kptrain -model model.json -scale 10 -seed 1 -trees 120
//
// Training is deterministic for a fixed -seed: the same flags write the
// same bytes. kpserve -model serves the file; to change the model a
// server scores with, restart it on a new one.
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
		modelPath = flag.String("model", "model.json", "output model path")
		scale     = flag.Int("scale", 10, "corpus scale divisor")
		seed      = flag.Int64("seed", 1, "generation and training seed")
		trees     = flag.Int("trees", 120, "boosting rounds")
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

	f, err := os.Create(*modelPath)
	if err != nil {
		return err
	}
	if err := det.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", *modelPath)
	return nil
}
