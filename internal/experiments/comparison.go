package experiments

import (
	"fmt"

	"knowphish/internal/baselines"
	"knowphish/internal/core"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// TableX reproduces the state-of-the-art comparison (Table X). The
// published systems cannot be rerun, so the three baseline archetypes
// are re-implemented (internal/baselines) and evaluated on the same
// corpora as our system, in the same three configurations the paper reports for itself:
// English scenario, several-languages scenario, and cross-validation.
func (r *Runner) TableX() (*Table, error) {
	t := &Table{
		Title: "Table X: Phishing detection system performances comparison",
		Header: []string{
			"Technique", "Testing legit", "Testing phish",
			"Train/Test", "Leg/Phish", "Evaluation",
			"FPR", "Pre.", "Recall", "Acc.",
		},
	}
	c := r.Corpus
	trainSnaps := append(c.LegTrain.Snapshots(), c.PhishTrain.Snapshots()...)
	trainLabels := append(c.LegTrain.Labels(), c.PhishTrain.Labels()...)
	english := c.LangTests[webgen.English]

	testSnaps := make([]*webpage.Snapshot, 0, len(c.PhishTest.Examples)+len(english.Examples))
	testLabels := make([]int, 0, cap(testSnaps))
	for _, ex := range c.PhishTest.Examples {
		testSnaps = append(testSnaps, ex.Snapshot)
		testLabels = append(testLabels, 1)
	}
	for _, ex := range english.Examples {
		testSnaps = append(testSnaps, ex.Snapshot)
		testLabels = append(testLabels, 0)
	}
	nLeg, nPhish := len(english.Examples), len(c.PhishTest.Examples)
	ratioTT := fmt.Sprintf("1/%d", (nLeg+nPhish)/max(1, len(trainSnaps)))
	ratioLP := fmt.Sprintf("%d/1", nLeg/max(1, nPhish))

	evalClassifier := func(clf baselines.Classifier, threshold float64) (ml.Confusion, bool) {
		scores := make([]float64, len(testSnaps))
		for i, s := range testSnaps {
			scores[i] = clf.Score(s)
		}
		return ml.Evaluate(scores, testLabels, threshold), true
	}
	addRow := func(name string, conf ml.Confusion, evalName string) {
		t.AddRow(name,
			fmt.Sprintf("%d", nLeg), fmt.Sprintf("%d", nPhish),
			ratioTT, ratioLP, evalName,
			fmt.Sprintf("%.4f", conf.FPR()), fmtF(conf.Precision(), 3),
			fmtF(conf.Recall(), 3), fmtF(conf.Accuracy(), 3))
	}

	// Baseline 1: Cantina (no learning).
	cantina := baselines.NewCantina(c.Engine)
	if conf, ok := evalClassifier(cantina, 0.75); ok {
		addRow(cantina.Name(), conf, "no learning")
	}

	// Baseline 2: URL-lexical logistic regression.
	urlLex, err := baselines.TrainURLLexical(trainSnaps, trainLabels, r.Seed+11)
	if err != nil {
		return nil, fmt.Errorf("experiments: TableX url-lexical: %w", err)
	}
	if conf, ok := evalClassifier(urlLex, 0.5); ok {
		addRow(urlLex.Name(), conf, "old/new")
	}

	// Baseline 3: bag-of-words.
	bow, err := baselines.TrainBagOfWords(trainSnaps, trainLabels, r.Seed+12)
	if err != nil {
		return nil, fmt.Errorf("experiments: TableX bow: %w", err)
	}
	if conf, ok := evalClassifier(bow, 0.5); ok {
		addRow(bow.Name(), conf, "old/new")
	}

	// Our method, English scenario.
	d, err := r.Detector(0)
	if err != nil {
		return nil, err
	}
	scores, labels := r.scenario2Scores(d, webgen.English)
	conf, _ := evalRow(scores, labels, core.DefaultThreshold)
	addRow("Our method (English)", conf, "old/new")

	// Our method, all languages pooled ("several").
	var allScores []float64
	var allLabels []int
	totalLeg := 0
	for _, lang := range webgen.Languages {
		if _, ok := c.LangTests[lang]; !ok {
			continue
		}
		for _, v := range r.LangMatrix(lang) {
			allScores = append(allScores, d.ScoreVector(v))
			allLabels = append(allLabels, 0)
			totalLeg++
		}
	}
	for _, v := range r.PhishTestMatrix() {
		allScores = append(allScores, d.ScoreVector(v))
		allLabels = append(allLabels, 1)
	}
	confAll := ml.Evaluate(allScores, allLabels, core.DefaultThreshold)
	t.AddRow("Our method (several)",
		fmt.Sprintf("%d", totalLeg), fmt.Sprintf("%d", nPhish),
		fmt.Sprintf("1/%d", (totalLeg+nPhish)/max(1, len(trainSnaps))),
		fmt.Sprintf("%d/1", totalLeg/max(1, nPhish)), "old/new",
		fmt.Sprintf("%.4f", confAll.FPR()), fmtF(confAll.Precision(), 3),
		fmtF(confAll.Recall(), 3), fmtF(confAll.Accuracy(), 3))

	// Our method, cross-validation on the training corpora.
	x, y := r.TrainMatrix()
	gbm := core.DefaultGBMConfig()
	gbm.Seed = r.Seed + 13
	cv, err := ml.CrossValidateGBM(features.Project(x, features.Indices(features.All)), y, 5, core.DefaultThreshold, gbm)
	if err != nil {
		return nil, fmt.Errorf("experiments: TableX CV: %w", err)
	}
	t.AddRow("Our method (cross-valid)",
		fmt.Sprintf("%d", c.LegTrain.Clean()), fmt.Sprintf("%d", c.PhishTrain.Clean()),
		"4/1", fmt.Sprintf("%d/1", c.LegTrain.Clean()/max(1, c.PhishTrain.Clean())), "cross-valid",
		fmt.Sprintf("%.4f", cv.Pooled.FPR()), fmtF(cv.Pooled.Precision(), 3),
		fmtF(cv.Pooled.Recall(), 3), fmtF(cv.Pooled.Accuracy(), 3))

	t.Notes = append(t.Notes,
		"published systems are represented by re-implemented archetypes (internal/baselines)",
		"expected shape: ours keeps the lowest FPR at comparable recall; Cantina pays search dependence with FPs; URL-only trails on content-borne signals")
	return t, nil
}
