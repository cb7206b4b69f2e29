package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// reportFile is the full report an untraced run leaves in its out
// directory; runSet collects it from every run of a set.
const reportFile = "report.json"

// setRuns is the runs of one workload in a set, each with another seed.
const setRuns = 10

// set is what a baseline file holds: one set of runs of this commit.
type set struct {
	Machine    string        `json:"machine"`
	Started    string        `json:"started"`
	RunSeconds float64       `json:"run_seconds"`
	Workloads  []setWorkload `json:"workloads"`
}

type setWorkload struct {
	Workload string       `json:"workload"`
	Summary  []setSummary `json:"summary"`
	Runs     []report     `json:"runs"` // machine, Go version, commit and seed are in each
}

// setSummary is one metric over the runs of a set. Spread is the
// distance between the quartiles as a share of the median; Bound is the
// metric's bound in BENCHMARK.json, 0 for an info row.
type setSummary struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Bound  float64   `json:"bound"`
}

// runSet makes one set: setRuns untraced runs of every selected
// workload, seeds o.seed upward, each a process of its own as the
// driver's are, and writes it to o.baseline with every metric's spread
// held against its bound. Run it from the repository root on an
// otherwise idle machine.
func runSet(o options, log io.Writer) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	doc := set{Machine: cpuModel(), Started: time.Now().UTC().Format(time.RFC3339), RunSeconds: o.seconds}
	worst := 0.0
	for _, w := range selected {
		sw := setWorkload{Workload: w.name}
		for seed := o.seed; seed < o.seed+setRuns; seed++ {
			t0 := time.Now()
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0")
			if out, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w.name, seed, err, out)
			}
			var rep report
			b, err := os.ReadFile(filepath.Join(o.outDir, reportFile))
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			sw.Runs = append(sw.Runs, rep)
			fmt.Fprintf(log, "%s seed %d: %.1f s\n", w.name, seed, time.Since(t0).Seconds())
		}
		for i, m := range sw.Runs[0].Workloads[0].Metrics {
			sum := setSummary{Name: m.Name, Unit: m.Unit, Bound: bounds[m.Name]}
			for _, r := range sw.Runs {
				sum.Values = append(sum.Values, r.Workloads[0].Metrics[i].Value)
			}
			sum.Q1, sum.Median, sum.Q3 = quartiles(sum.Values)
			sum.Spread = ratio(sum.Q3-sum.Q1, sum.Median)
			if sum.Bound > 0 {
				worst = max(worst, sum.Spread/sum.Bound)
			}
			fmt.Fprintf(log, "  %-18s median %12.4f  spread %.4f  bound %g\n", sum.Name, sum.Median, sum.Spread, sum.Bound)
			sw.Summary = append(sw.Summary, sum)
		}
		doc.Workloads = append(doc.Workloads, sw)
	}
	fmt.Fprintf(log, "worst spread/bound %.2f (the driver refuses above 1; aim below 0.33)\n", worst)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.baseline, append(b, '\n'), 0o644)
}

// readBounds returns the bound of every end-to-end metric.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
