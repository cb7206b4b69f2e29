package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one named number of a report. For an end-to-end metric
// Value is the median over the measured rounds, whose values follow in
// Rounds; for a per-layer timing it is the p50 over Samples spans, with
// the highest quotable tail percentile beside it.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Rounds  []float64 `json:"rounds,omitempty"`
	Tail    string    `json:"tail,omitempty"`
	Samples int       `json:"samples"`
	// Info marks a number printed for the reader that BENCHMARK.json
	// does not list in this mode (it is not steady enough to carry a
	// bound, or is absent on some workload), so the one-line result
	// leaves it out.
	Info bool `json:"info,omitempty"`
}

// overRounds is the end-to-end form: median of per-round values.
func overRounds(name, unit string, values []float64, samples int) metric {
	s := ascending(values)
	return metric{Name: name, Unit: unit, Value: median(values), Min: s[0], Max: s[len(s)-1], Rounds: values, Samples: samples}
}

// single is a number read once (a counter, a ratio).
func single(name, unit string, v float64, samples int) metric {
	return metric{Name: name, Unit: unit, Value: v, Min: v, Max: v, Samples: samples}
}

// workloadReport is everything one workload's run printed.
type workloadReport struct {
	Workload    string   `json:"workload"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	UniquePages int      `json:"unique_pages"`
	Breaches    []string `json:"breaches,omitempty"`
	Metrics     []metric `json:"metrics"`
}

// tally folds one round's attempt and failure counts into the report.
func (wr *workloadReport) tally(r *round) {
	wr.Attempted += r.attempted
	wr.Failed += r.failed
	wr.Breaches = append(wr.Breaches, r.breaches...)
	wr.FailedShare = ratio(float64(wr.Failed), float64(wr.Attempted))
	wr.Correct = wr.Failed == 0
}

// report is the document an untraced run leaves as out/report.json; a
// baseline file holds one per run.
type report struct {
	GoVersion string           `json:"go_version"`
	Platform  string           `json:"platform"`
	NProc     int              `json:"nproc"`
	Commit    string           `json:"commit"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Workloads []workloadReport `json:"workloads"`
}

func newReport(seed int64, seconds float64, trace bool) *report {
	rep := &report{
		GoVersion: runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
		NProc:     runtime.NumCPU(),
		Commit:    "unknown",
		Seed:      seed,
		Seconds:   seconds,
		Trace:     trace,
	}
	// The build's commit, when it was made in a git checkout; "+" marks
	// a tree that differs from it.
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision":
				rep.Commit = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "+"
			}
		}
		rep.Commit += dirty
	}
	return rep
}

// table renders the metrics as a markdown table: what the run prints
// and, for a traced run, a section of ledger.md.
func (wr *workloadReport) table(w io.Writer) {
	fmt.Fprintf(w, "## %s\n\n", wr.Workload)
	fmt.Fprintf(w, "attempted %d, failed %d, failed_share %.4f, unique_pages %d\n\n",
		wr.Attempted, wr.Failed, wr.FailedShare, wr.UniquePages)
	for _, b := range wr.Breaches {
		fmt.Fprintf(w, "- FAILED: %s\n", b)
	}
	fmt.Fprintln(w, "| metric | unit | value | min | max | rounds / tail | samples |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---|---:|")
	for _, m := range wr.Metrics {
		detail := m.Tail
		if len(m.Rounds) > 0 {
			parts := make([]string, len(m.Rounds))
			for i, v := range m.Rounds {
				parts[i] = fmt.Sprintf("%.4g", v)
			}
			detail = strings.Join(parts, " ")
		}
		name := m.Name
		if m.Info {
			name += " (info)"
		}
		fmt.Fprintf(w, "| %s | %s | %.4f | %.4f | %.4f | %s | %d |\n",
			name, m.Unit, m.Value, m.Min, m.Max, detail, m.Samples)
	}
	fmt.Fprintln(w)
}

// resultLine is the one-line JSON object a driver reads off the end of
// standard output.
func (wr *workloadReport) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]value{}}
	for _, m := range wr.Metrics {
		if !m.Info {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out) // plain numbers and strings always marshal
	return string(b)
}
