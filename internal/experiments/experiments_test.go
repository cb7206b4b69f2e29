package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"knowphish/internal/dataset"
	"knowphish/internal/webgen"
)

// sharedRunner is built once; experiments only read from it.
var sharedRunner *Runner

func runner(t *testing.T) *Runner {
	t.Helper()
	if sharedRunner == nil {
		r, err := NewRunner(dataset.Config{
			Seed:  51,
			Scale: 25,
			World: webgen.Config{Seed: 52, Brands: 80, RankedGenerics: 60, VocabularyWords: 100},
		})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		sharedRunner = r
	}
	return sharedRunner
}

var update = flag.Bool("update", false, "rewrite the pinned table renderings under testdata/")

// pinRendering asserts that tab renders byte-for-byte as the committed
// testdata/<name>.txt. The runner's seeds are fixed, so the paper's
// tables are deterministic; the *Shape floors would not notice a
// ten-point recall drop, the pinned bytes notice a last-digit one.
// -update regenerates after a deliberate change to the detector.
func pinRendering(t *testing.T, name string, tab *Table) {
	t.Helper()
	path := filepath.Join("testdata", name+".txt")
	got := tab.Render()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its pinned rendering (-update only for a deliberate detector change)\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// parseCell converts a numeric table cell (possibly with % suffix).
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestTableV(t *testing.T) {
	r := runner(t)
	tab := r.TableV()
	if len(tab.Rows) != 4+6 {
		t.Fatalf("rows = %d, want 10 (4 cleaned campaigns + 6 language sets)", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "phishTrain") {
		t.Error("render missing phishTrain")
	}
	// Initial >= clean for cleaned campaigns.
	for _, row := range tab.Rows[:4] {
		initial := parseCell(t, row[2])
		clean := parseCell(t, row[3])
		if clean > initial {
			t.Errorf("%s: clean %v > initial %v", row[1], clean, initial)
		}
	}
}

func TestTableVIShape(t *testing.T) {
	r := runner(t)
	tab, err := r.TableVI()
	if err != nil {
		t.Fatalf("TableVI: %v", err)
	}
	pinRendering(t, "table_vi", tab)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 languages", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		pre := parseCell(t, row[1])
		rec := parseCell(t, row[2])
		fpr := parseCell(t, row[4])
		auc := parseCell(t, row[5])
		if pre < 0.7 {
			t.Errorf("%s precision = %v, want >= 0.7", row[0], pre)
		}
		if rec < 0.8 {
			t.Errorf("%s recall = %v, want >= 0.8", row[0], rec)
		}
		if fpr > 0.03 {
			t.Errorf("%s FPR = %v, want <= 0.03", row[0], fpr)
		}
		if auc < 0.95 {
			t.Errorf("%s AUC = %v, want >= 0.95", row[0], auc)
		}
		// Recall identical across languages (same phishTest set), as in
		// the paper where recall is 0.958 for every row.
		if row[2] != tab.Rows[0][2] {
			t.Errorf("recall differs across languages: %s vs %s", row[2], tab.Rows[0][2])
		}
	}
}

func TestTableVIIShape(t *testing.T) {
	r := runner(t)
	tab, err := r.TableVII()
	if err != nil {
		t.Fatalf("TableVII: %v", err)
	}
	pinRendering(t, "table_vii", tab)
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 metrics x 2 scenarios)", len(tab.Rows))
	}
	// The paper's headline shape: fall (last column) dominates each
	// individual set on CV AUC, and f3/f5 are the weak sets.
	aucRow := tab.Rows[4] // CV AUC
	fall := parseCell(t, aucRow[len(aucRow)-1])
	f3 := parseCell(t, aucRow[4])
	f5 := parseCell(t, aucRow[6])
	f1 := parseCell(t, aucRow[2])
	if fall < f3 || fall < f5 {
		t.Errorf("fall AUC %v must dominate f3 %v and f5 %v", fall, f3, f5)
	}
	if f1 < f3 {
		t.Errorf("f1 AUC %v should beat f3 %v (paper: f1 strongest single set)", f1, f3)
	}
}

func TestFig2(t *testing.T) {
	r := runner(t)
	figs, err := r.Fig2()
	if err != nil {
		t.Fatalf("Fig2: %v", err)
	}
	if len(figs) != 3 {
		t.Fatalf("figures = %d, want 3 (recall, precision, FPR)", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Errorf("%s: series = %d, want 2", f.Title, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.X) != 8 {
				t.Errorf("%s/%s: points = %d, want 8 feature sets", f.Title, s.Name, len(s.X))
			}
		}
	}
}

func TestFig3Fig4Shape(t *testing.T) {
	r := runner(t)
	f3, err := r.Fig3()
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	f4, err := r.Fig4()
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	for _, f := range []*Figure{f3, f4} {
		if len(f.Series) != 6 {
			t.Fatalf("%s: series = %d, want 6 languages", f.Title, len(f.Series))
		}
	}
	// ROC curves are monotone and span [0,1].
	for _, s := range f4.Series {
		last := len(s.X) - 1
		if s.X[0] != 0 || s.Y[0] != 0 || s.X[last] != 1 || s.Y[last] != 1 {
			t.Errorf("ROC %s does not span (0,0)-(1,1)", s.Name)
		}
		for i := 1; i < len(s.X); i++ {
			if s.X[i] < s.X[i-1] || s.Y[i] < s.Y[i-1] {
				t.Fatalf("ROC %s not monotone", s.Name)
			}
		}
	}
}

func TestFig5(t *testing.T) {
	r := runner(t)
	figs, err := r.Fig5()
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(figs) != 8 {
		t.Fatalf("panels = %d, want 8", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 2 {
			t.Errorf("%s: series = %d, want 2 (English, CV)", f.Title, len(f.Series))
		}
	}
}

func TestFig6Shape(t *testing.T) {
	r := runner(t)
	f, err := r.Fig6()
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3 (precision, recall, FPR)", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 10 {
			t.Errorf("%s: steps = %d, want 10", s.Name, len(s.X))
		}
		// Sizes strictly increasing.
		for i := 1; i < len(s.X); i++ {
			if s.X[i] <= s.X[i-1] {
				t.Fatalf("%s: size not increasing", s.Name)
			}
		}
	}
	// The paper's observation: FPR does not blow up with scale — final
	// FPR stays small.
	fpr := f.Series[2]
	if last := fpr.Y[len(fpr.Y)-1]; last > 0.05 {
		t.Errorf("final FPR = %v, want <= 0.05", last)
	}
}

func TestTableVIIIShape(t *testing.T) {
	r := runner(t)
	tab, err := r.TableVIII(30)
	if err != nil {
		t.Fatalf("TableVIII: %v", err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 stages", len(tab.Rows))
	}
	// Classification must be far cheaper than feature extraction
	// (the paper's point: decisions are fast once data is local).
	extraction := parseCell(t, tab.Rows[2][2])
	classification := parseCell(t, tab.Rows[3][2])
	if classification > extraction {
		t.Errorf("classification avg %v > extraction avg %v", classification, extraction)
	}
}

func TestTableIXShape(t *testing.T) {
	r := runner(t)
	tab, err := r.TableIX()
	if err != nil {
		t.Fatalf("TableIX: %v", err)
	}
	pinRendering(t, "table_ix", tab)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (top-1/2/3)", len(tab.Rows))
	}
	// Success rate must be monotone in k and within a plausible band of
	// the paper's 90.5–97.3%.
	var rates []float64
	for _, row := range tab.Rows {
		rates = append(rates, parseCell(t, row[4]))
	}
	if rates[0] > rates[1] || rates[1] > rates[2] {
		t.Errorf("success rates not monotone: %v", rates)
	}
	if rates[0] < 60 {
		t.Errorf("top-1 success = %.1f%%, want >= 60%%", rates[0])
	}
	if rates[2] < 75 {
		t.Errorf("top-3 success = %.1f%%, want >= 75%%", rates[2])
	}
}

func TestTableXShape(t *testing.T) {
	r := runner(t)
	tab, err := r.TableX()
	if err != nil {
		t.Fatalf("TableX: %v", err)
	}
	pinRendering(t, "table_x", tab)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 baselines + 3 of ours)", len(tab.Rows))
	}
	// Our English row must have the lowest FPR among systems evaluated on
	// the English scenario (rows 0..3).
	fprCantina := parseCell(t, tab.Rows[0][6])
	fprOurs := parseCell(t, tab.Rows[3][6])
	if fprOurs > fprCantina {
		t.Errorf("our FPR %v > Cantina FPR %v — Table X shape broken", fprOurs, fprCantina)
	}
}

func TestFPReductionShape(t *testing.T) {
	r := runner(t)
	tab, err := r.FPReduction()
	if err != nil {
		t.Fatalf("FPReduction: %v", err)
	}
	pinRendering(t, "fp_reduction", tab)
	var before, after float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "FP rate before":
			before = parseCell(t, row[1])
		case "FP rate after":
			after = parseCell(t, row[1])
		}
	}
	if after > before {
		t.Errorf("FP rate after %v > before %v — reduction must not hurt", after, before)
	}
}

func TestAblations(t *testing.T) {
	r := runner(t)
	a1, err := r.AblationSplit()
	if err != nil {
		t.Fatalf("A1: %v", err)
	}
	splitAUC := parseCell(t, a1.Rows[0][5])
	unsplitAUC := parseCell(t, a1.Rows[1][5])
	if splitAUC+0.02 < unsplitAUC {
		t.Errorf("A1: split AUC %v clearly below unsplit %v — split should help or tie", splitAUC, unsplitAUC)
	}

	a2, err := r.AblationDistance()
	if err != nil {
		t.Fatalf("A2: %v", err)
	}
	if len(a2.Rows) != 3 {
		t.Fatalf("A2 rows = %d", len(a2.Rows))
	}

	a3, err := r.AblationThreshold()
	if err != nil {
		t.Fatalf("A3: %v", err)
	}
	// FPR must be non-increasing as the threshold rises.
	var prev float64 = 1
	for _, row := range a3.Rows {
		fpr := parseCell(t, row[3])
		if fpr > prev+1e-9 {
			t.Errorf("A3: FPR increased with threshold: %v after %v", fpr, prev)
		}
		prev = fpr
	}

	a4, err := r.AblationTrainSize()
	if err != nil {
		t.Fatalf("A4: %v", err)
	}
	if len(a4.Rows) < 3 {
		t.Fatalf("A4 rows = %d", len(a4.Rows))
	}

	a5, err := r.AblationUnseenBrands()
	if err != nil {
		t.Fatalf("A5: %v", err)
	}
	oursRecall := parseCell(t, a5.Rows[0][1])
	if oursRecall < 0.7 {
		t.Errorf("A5: our recall on unseen brands = %v, want >= 0.7 (brand independence)", oursRecall)
	}

	a6, err := r.AblationClassifier()
	if err != nil {
		t.Fatalf("A6: %v", err)
	}
	if len(a6.Rows) != 3 {
		t.Fatalf("A6 rows = %d, want 3 classifiers", len(a6.Rows))
	}
	gbAUC := parseCell(t, a6.Rows[0][4])
	lrAUC := parseCell(t, a6.Rows[2][4])
	if gbAUC+0.02 < lrAUC {
		t.Errorf("A6: boosting AUC %v clearly below logistic %v", gbAUC, lrAUC)
	}

	a7, err := r.AblationEvasion()
	if err != nil {
		t.Fatalf("A7: %v", err)
	}
	pinRendering(t, "ablation_evasion", a7)
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"== T ==", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{Title: "F", XLabel: "x", YLabel: "y"}
	f.AddSeries("s1", []float64{1, 2}, []float64{3, 4})
	out := f.Render()
	for _, want := range []string{"== F ==", "# series: s1", "1\t3", "2\t4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
