package experiments

import (
	"fmt"

	"knowphish/internal/core"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/webgen"
)

// setEval holds both scenarios' metrics for one feature set.
type setEval struct {
	set features.Set
	// cv is scenario 1: 5-fold cross-validation on legTrain+phishTrain.
	cv       ml.Confusion
	cvAUC    float64
	cvScores []float64
	cvLabels []int
	// en is scenario 2: English dataset prediction.
	en       ml.Confusion
	enAUC    float64
	enScores []float64
	enLabels []int
}

// evaluateFeatureSets runs both scenarios for all eight sets (cached).
func (r *Runner) evaluateFeatureSets() ([]setEval, error) {
	r.mu.Lock()
	cached := r.setEvals
	r.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	x, y := r.TrainMatrix()
	out := make([]setEval, 0, len(features.PaperSets))
	for _, set := range features.PaperSets {
		ev := setEval{set: set}

		// Scenario 1: cross-validation on the training corpora.
		cols := features.Indices(set)
		proj := features.Project(x, cols)
		gbm := core.DefaultGBMConfig()
		gbm.Seed = r.Seed + int64(set)
		cv, err := ml.CrossValidateGBM(proj, y, 5, core.DefaultThreshold, gbm)
		if err != nil {
			return nil, fmt.Errorf("experiments: CV for %s: %w", set, err)
		}
		ev.cv = cv.Pooled
		ev.cvAUC = cv.AUCMean
		ev.cvScores = cv.Scores
		ev.cvLabels = cv.Labels

		// Scenario 2: train once, predict English + phishTest.
		d, err := r.Detector(set)
		if err != nil {
			return nil, err
		}
		scores, labels := r.scenario2Scores(d, webgen.English)
		ev.en, ev.enAUC = evalRow(scores, labels, core.DefaultThreshold)
		ev.enScores = scores
		ev.enLabels = labels

		out = append(out, ev)
	}
	r.mu.Lock()
	r.setEvals = out
	r.mu.Unlock()
	return out, nil
}

// TableVII reproduces the detailed per-feature-set accuracy table
// (Table VII): precision, recall, F1, FPR and AUC for the eight feature
// sets under cross-validation and under the English scenario.
func (r *Runner) TableVII() (*Table, error) {
	evals, err := r.evaluateFeatureSets()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table VII: Detailed accuracy evaluation for different feature sets",
		Header: []string{"Scenario", "Metrics", "f1", "f2", "f3", "f4", "f5", "f1,5", "f2,3,4", "fall"},
	}
	type metric struct {
		name string
		cv   func(e setEval) string
		en   func(e setEval) string
	}
	metrics := []metric{
		{"Precision", func(e setEval) string { return fmtF(e.cv.Precision(), 3) }, func(e setEval) string { return fmtF(e.en.Precision(), 3) }},
		{"Recall", func(e setEval) string { return fmtF(e.cv.Recall(), 3) }, func(e setEval) string { return fmtF(e.en.Recall(), 3) }},
		{"F1-score", func(e setEval) string { return fmtF(e.cv.F1(), 3) }, func(e setEval) string { return fmtF(e.en.F1(), 3) }},
		{"FP Rate", func(e setEval) string { return fmt.Sprintf("%.4f", e.cv.FPR()) }, func(e setEval) string { return fmt.Sprintf("%.4f", e.en.FPR()) }},
		{"AUC", func(e setEval) string { return fmtF(e.cvAUC, 3) }, func(e setEval) string { return fmtF(e.enAUC, 3) }},
	}
	for _, m := range metrics {
		row := []string{"Cross-validation", m.name}
		for _, e := range evals {
			row = append(row, m.cv(e))
		}
		t.AddRow(row...)
	}
	for _, m := range metrics {
		row := []string{"English", m.name}
		for _, e := range evals {
			row = append(row, m.en(e))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig2 reproduces the per-feature-set accuracy bars (Fig. 2a recall,
// 2b precision, 2c false positive rate) for both scenarios. Each figure
// has two series (CV, English) with x = feature-set index in paper order.
func (r *Runner) Fig2() ([]*Figure, error) {
	evals, err := r.evaluateFeatureSets()
	if err != nil {
		return nil, err
	}
	idx := make([]float64, len(evals))
	labels := make([]string, len(evals))
	for i, e := range evals {
		idx[i] = float64(i + 1)
		labels[i] = e.set.String()
	}
	build := func(title string, cv, en func(e setEval) float64) *Figure {
		f := &Figure{Title: title, XLabel: "feature set (1=f1 .. 8=fall)", YLabel: "value"}
		cvY := make([]float64, len(evals))
		enY := make([]float64, len(evals))
		for i, e := range evals {
			cvY[i] = cv(e)
			enY[i] = en(e)
		}
		f.AddSeries("CV", idx, cvY)
		f.AddSeries("English", idx, enY)
		f.Notes = append(f.Notes, "x order: "+joinLabels(labels))
		return f
	}
	return []*Figure{
		build("Fig 2a: Recall per feature set",
			func(e setEval) float64 { return e.cv.Recall() },
			func(e setEval) float64 { return e.en.Recall() }),
		build("Fig 2b: Precision per feature set",
			func(e setEval) float64 { return e.cv.Precision() },
			func(e setEval) float64 { return e.en.Precision() }),
		build("Fig 2c: False positive rate per feature set",
			func(e setEval) float64 { return e.cv.FPR() },
			func(e setEval) float64 { return e.en.FPR() }),
	}, nil
}

// Fig5 reproduces the per-feature-set ROC curves (Fig. 5a–h): one figure
// per feature set, each with an English and a cross-validation series.
func (r *Runner) Fig5() ([]*Figure, error) {
	evals, err := r.evaluateFeatureSets()
	if err != nil {
		return nil, err
	}
	panels := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var out []*Figure
	for i, e := range evals {
		f := &Figure{
			Title:  fmt.Sprintf("Fig 5%s: ROC for %s", panels[i], e.set),
			XLabel: "False Positive Rate", YLabel: "True Positive Rate",
		}
		for _, src := range []struct {
			name   string
			scores []float64
			labels []int
		}{
			{"English", e.enScores, e.enLabels},
			{"Cross-validation", e.cvScores, e.cvLabels},
		} {
			curve := ml.ROC(src.scores, src.labels)
			x := make([]float64, len(curve))
			y := make([]float64, len(curve))
			for k, p := range curve {
				x[k] = p.FPR
				y[k] = p.TPR
			}
			f.AddSeries(src.name, x, y)
		}
		out = append(out, f)
	}
	return out, nil
}

func joinLabels(ls []string) string {
	out := ""
	for i, l := range ls {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%d=%s", i+1, l)
	}
	return out
}
