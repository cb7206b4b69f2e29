package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knowphish/internal/experiments"
)

func selectedKeys(t *testing.T, list string) string {
	t.Helper()
	exps, err := selectExperiments(list)
	if err != nil {
		t.Fatalf("selectExperiments(%q): %v", list, err)
	}
	var ks []string
	for _, e := range exps {
		ks = append(ks, e.Key)
	}
	return strings.Join(ks, ",")
}

func TestSelectExperiments(t *testing.T) {
	all := strings.Join(keys(), ",")
	for list, want := range map[string]string{
		"all":                 all,
		"all,fig2":            all,
		"fig2, ALL":           all,
		"fig4,TableVI":        "tablevi,fig4", // paper order, any case
		" tablevi , fig4 ,":   "tablevi,fig4",
		"fig5,fig5":           "fig5",
		"ablation-classifier": "ablation-classifier",
	} {
		if got := selectedKeys(t, list); got != want {
			t.Errorf("-run %q selects %s, want %s", list, got, want)
		}
	}
	for _, list := range []string{"tablevi,fgi4", "all,bogus"} {
		_, err := selectExperiments(list)
		bad := strings.Split(list, ",")[1]
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("-run %q: err = %v, want one naming %q", list, err, bad)
		}
	}
	if _, err := selectExperiments(" , "); err == nil {
		t.Error("-run selecting nothing is not an error")
	}
}

// TestRunRejectsBeforeBuilding: -h and an unknown -run name return before
// a corpus is built; -h lists every key and exactly the four flags.
func TestRunRejectsBeforeBuilding(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	help := stderr.String()
	for _, k := range keys() {
		if !strings.Contains(help, " "+k+" ") {
			t.Errorf("-h does not list %s:\n%s", k, help)
		}
	}
	if n := strings.Count(help, "\n  -"); n != 4 {
		t.Errorf("-h lists %d flags, want 4 (-out -run -scale -seed):\n%s", n, help)
	}

	stderr.Reset()
	err := run([]string{"-run", "tablevi,fgi4"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `"fgi4"`) {
		t.Fatalf("unknown name: err = %v, want one naming fgi4", err)
	}
	if stdout.Len() != 0 || strings.Contains(stderr.String(), "building corpus") {
		t.Errorf("unknown name still started a run: stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

func panels(id string, titles ...string) []experiments.Artifact {
	var arts []experiments.Artifact
	for _, title := range titles {
		arts = append(arts, experiments.Artifact{ID: id + "/" + title, Figure: &experiments.Figure{Title: title}})
	}
	return arts
}

// TestWriteArtifactsOneFilePerPanel: each panel of a figure family gets
// its own file, named the way the index names the panel.
func TestWriteArtifactsOneFilePerPanel(t *testing.T) {
	fig2 := panels("E3",
		"Fig 2a: Recall per feature set",
		"Fig 2b: Precision per feature set",
		"Fig 2c: False positive rate per feature set")
	var fig5Titles []string
	for i, set := range []string{"f1", "f2", "f3", "f4", "f5", "f1,5", "f2,3,4", "fall"} {
		fig5Titles = append(fig5Titles, "Fig 5"+string(rune('a'+i))+": ROC for "+set)
	}
	fig5 := panels("E7", fig5Titles...)
	table := experiments.Artifact{ID: "E2/TableVI", Table: &experiments.Table{Title: "Table VI"}}

	for _, tc := range []struct {
		name string
		arts []experiments.Artifact
		want int
	}{
		{"fig2", fig2, 3},
		{"fig5", fig5, 8},
		{"table+fig2+fig5", append(append([]experiments.Artifact{table}, fig2...), fig5...), 12},
	} {
		dir := t.TempDir()
		if err := writeArtifacts(dir, tc.arts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != tc.want {
			t.Errorf("%s: wrote %d files, want %d", tc.name, len(files), tc.want)
		}
		a := tc.arts[0]
		name := strings.NewReplacer("/", "_", ":", "", " ", "_").Replace(a.ID) + ".txt"
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != a.Render() {
			t.Errorf("%s: %s holds %q (%v), want %q", tc.name, name, got, err, a.Render())
		}
	}
}

// TestWriteArtifactsRefusesSharedName: two artifacts that map to one file
// name are an error, not a silent overwrite.
func TestWriteArtifactsRefusesSharedName(t *testing.T) {
	arts := []experiments.Artifact{
		{ID: "E3/Fig2", Figure: &experiments.Figure{Title: "Fig 2a"}},
		{ID: "E3/Fig2", Figure: &experiments.Figure{Title: "Fig 2b"}},
	}
	if err := writeArtifacts(t.TempDir(), arts); err == nil || !strings.Contains(err.Error(), "E3_Fig2.txt") {
		t.Fatalf("two artifacts for one file: err = %v, want one naming E3_Fig2.txt", err)
	}
}
