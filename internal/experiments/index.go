package experiments

import (
	"fmt"
	"io"
)

// Artifact is one regenerated paper artifact: a table or figure with its
// experiment id from Index.
type Artifact struct {
	ID     string
	Table  *Table
	Figure *Figure
}

// Render writes the artifact's content.
func (a Artifact) Render() string {
	if a.Table != nil {
		return a.Table.Render()
	}
	if a.Figure != nil {
		return a.Figure.Render()
	}
	return ""
}

// Experiment is one entry of the experiment index: Key selects it on the
// kpexperiments command line, ID is its paper-order id (E1–E12, A1–A7).
type Experiment struct {
	Key string
	ID  string
	run func(*Runner) ([]Artifact, error)
}

// Index lists every experiment in paper order: E1–E12, then the
// ablations A1–A7.
var Index = []Experiment{
	table("tablev", "E1/TableV", func(r *Runner) (*Table, error) { return r.TableV(), nil }),
	table("tablevi", "E2/TableVI", (*Runner).TableVI),
	family("fig2", "E3", (*Runner).Fig2),
	table("tablevii", "E4/TableVII", (*Runner).TableVII),
	figure("fig3", "E5/Fig3", (*Runner).Fig3),
	figure("fig4", "E6/Fig4", (*Runner).Fig4),
	family("fig5", "E7", (*Runner).Fig5),
	figure("fig6", "E8/Fig6", (*Runner).Fig6),
	table("tableviii", "E9/TableVIII", func(r *Runner) (*Table, error) { return r.TableVIII(100) }),
	table("tableix", "E10/TableIX", (*Runner).TableIX),
	table("tablex", "E11/TableX", (*Runner).TableX),
	table("fpreduction", "E12/FPReduction", (*Runner).FPReduction),
	table("ablation-split", "A1/Split", (*Runner).AblationSplit),
	table("ablation-distance", "A2/Distance", (*Runner).AblationDistance),
	table("ablation-threshold", "A3/Threshold", (*Runner).AblationThreshold),
	table("ablation-trainsize", "A4/TrainSize", (*Runner).AblationTrainSize),
	table("ablation-unseen", "A5/UnseenBrands", (*Runner).AblationUnseenBrands),
	table("ablation-classifier", "A6/Classifier", (*Runner).AblationClassifier),
	table("ablation-evasion", "A7/Evasion", (*Runner).AblationEvasion),
}

func table(key, id string, run func(*Runner) (*Table, error)) Experiment {
	return Experiment{key, id, func(r *Runner) ([]Artifact, error) {
		t, err := run(r)
		return []Artifact{{ID: id, Table: t}}, err
	}}
}

func figure(key, id string, run func(*Runner) (*Figure, error)) Experiment {
	return Experiment{key, id, func(r *Runner) ([]Artifact, error) {
		f, err := run(r)
		return []Artifact{{ID: id, Figure: f}}, err
	}}
}

// family adapts an experiment that draws several panels; each panel is
// its own artifact, named <id>/<panel title>.
func family(key, id string, run func(*Runner) ([]*Figure, error)) Experiment {
	return Experiment{key, id, func(r *Runner) ([]Artifact, error) {
		fs, err := run(r)
		arts := make([]Artifact, len(fs))
		for i, f := range fs {
			arts[i] = Artifact{ID: id + "/" + f.Title, Figure: f}
		}
		return arts, err
	}}
}

// Run executes exps in order and returns their artifacts. It writes the
// id of each experiment to progress as it starts, and "done: <artifact
// id>" for each artifact it yields.
func (r *Runner) Run(exps []Experiment, progress io.Writer) ([]Artifact, error) {
	var out []Artifact
	for _, e := range exps {
		fmt.Fprintln(progress, e.ID)
		arts, err := e.run(r)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, a := range arts {
			fmt.Fprintln(progress, "done:", a.ID)
		}
		out = append(out, arts...)
	}
	return out, nil
}
