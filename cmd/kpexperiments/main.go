// Command kpexperiments regenerates the paper's tables and figures
// (experiments.Index: E1–E12 plus ablations A1–A7).
//
// Usage:
//
//	kpexperiments                      # run everything at scale 1/10
//	kpexperiments -run tableVI,fig4    # selected experiments
//	kpexperiments -scale 1             # paper-scale corpora (slow)
//	kpexperiments -out results/        # also write one file per artifact
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"knowphish/internal/dataset"
	"knowphish/internal/experiments"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "kpexperiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kpexperiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runFilter = fs.String("run", "all", "comma list of experiments, or all: "+strings.Join(keys(), " "))
		scale     = fs.Int("scale", 10, "corpus scale divisor (1 = paper-scale, slow)")
		seed      = fs.Int64("seed", 1, "seed")
		outDir    = fs.String("out", "", "directory to also write artifacts into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps, err := selectExperiments(*runFilter)
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "building corpus (scale 1/%d, seed %d)...\n", *scale, *seed)
	r, err := experiments.NewRunner(dataset.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}
	artifacts, err := r.Run(exps, stderr)
	if err != nil {
		return err
	}
	for _, a := range artifacts {
		fmt.Fprintln(stdout, a.Render())
	}
	if *outDir == "" {
		return nil
	}
	fmt.Fprintf(stderr, "writing %d artifacts to %s\n", len(artifacts), *outDir)
	return writeArtifacts(*outDir, artifacts)
}

func keys() []string {
	ks := make([]string, len(experiments.Index))
	for i, e := range experiments.Index {
		ks[i] = e.Key
	}
	return ks
}

// selectExperiments resolves a -run list against the experiment index,
// in paper order. Names match without regard to case or surrounding
// space, "all" anywhere selects every experiment, and an unknown name is
// an error.
func selectExperiments(list string) ([]experiments.Experiment, error) {
	known := map[string]bool{"all": true, "": true}
	for _, k := range keys() {
		known[k] = true
	}
	wanted := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if !known[name] {
			return nil, fmt.Errorf("-run: unknown experiment %q (want all or one of: %s)", name, strings.Join(keys(), " "))
		}
		wanted[name] = true
	}
	var exps []experiments.Experiment
	for _, e := range experiments.Index {
		if wanted["all"] || wanted[e.Key] {
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("-run %q selects no experiment", list)
	}
	return exps, nil
}

// writeArtifacts writes each artifact into dir as its own file, named
// after its ID. Two artifacts that would share a file are an error.
func writeArtifacts(dir string, artifacts []experiments.Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	clean := strings.NewReplacer("/", "_", ":", "", " ", "_")
	owner := map[string]string{}
	for _, a := range artifacts {
		name := clean.Replace(a.ID) + ".txt"
		if prev, ok := owner[name]; ok {
			return fmt.Errorf("artifacts %q and %q would both be written to %s", prev, a.ID, name)
		}
		owner[name] = a.ID
		if err := os.WriteFile(filepath.Join(dir, name), []byte(a.Render()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
