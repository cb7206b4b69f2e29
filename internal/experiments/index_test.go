package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestIndexOrderAndIdentity: every key and id is unique, and the index
// runs in paper order, E1…E12 then A1…A7.
func TestIndexOrderAndIdentity(t *testing.T) {
	var want []string
	for i := 1; i <= 12; i++ {
		want = append(want, fmt.Sprintf("E%d", i))
	}
	for i := 1; i <= 7; i++ {
		want = append(want, fmt.Sprintf("A%d", i))
	}
	if len(Index) != len(want) {
		t.Fatalf("index has %d experiments, want %d", len(Index), len(want))
	}
	keys, ids := map[string]bool{}, map[string]bool{}
	for i, e := range Index {
		if num, _, _ := strings.Cut(e.ID, "/"); num != want[i] {
			t.Errorf("index[%d] = %s, want %s", i, e.ID, want[i])
		}
		if keys[e.Key] || ids[e.ID] {
			t.Errorf("index[%d] (%s, %s) repeats a key or an id", i, e.Key, e.ID)
		}
		keys[e.Key], ids[e.ID] = true, true
		if e.Key != strings.ToLower(strings.TrimSpace(e.Key)) || e.Key == "all" || strings.Contains(e.Key, ",") {
			t.Errorf("key %q cannot be selected by -run", e.Key)
		}
	}
}

// TestRunNamesFamilyPanelsApart: a figure family yields one artifact per
// panel, named <id>/<title>, and Run reports each; a failing experiment
// stops the run with its id on the error.
func TestRunNamesFamilyPanelsApart(t *testing.T) {
	panels := func(*Runner) ([]*Figure, error) {
		return []*Figure{{Title: "Fig 9a: one"}, {Title: "Fig 9b: two"}}, nil
	}
	boom := errors.New("boom")
	exps := []Experiment{
		table("t", "E1/T", func(*Runner) (*Table, error) { return &Table{Title: "T"}, nil }),
		family("f", "E2", panels),
		figure("g", "E3/G", func(*Runner) (*Figure, error) { return nil, boom }),
		table("never", "E4/Never", func(*Runner) (*Table, error) { t.Fatal("ran past a failure"); return nil, nil }),
	}
	var progress strings.Builder
	arts, err := (&Runner{}).Run(exps, &progress)
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "E3/G: ") {
		t.Fatalf("err = %v, want boom prefixed by E3/G", err)
	}
	var got []string
	for _, a := range arts {
		got = append(got, a.ID)
	}
	if want := "E1/T|E2/Fig 9a: one|E2/Fig 9b: two"; strings.Join(got, "|") != want {
		t.Errorf("artifacts = %q, want %q", strings.Join(got, "|"), want)
	}
	wantLog := "E1/T\ndone: E1/T\nE2\ndone: E2/Fig 9a: one\ndone: E2/Fig 9b: two\nE3/G\n"
	if progress.String() != wantLog {
		t.Errorf("progress =\n%s\nwant\n%s", progress.String(), wantLog)
	}
}
