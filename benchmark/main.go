// Command benchmark is the repository's benchmark: it boots the system
// in this process as `kpload -self` does, generates every input from
// -seed, drives four closed-loop workloads over loopback HTTP, checks
// the program's outputs, and prints every metric by name with its unit,
// rounds and sample count. With -trace 1 it instead makes the traced
// run that attributes a request's time to layers. See README.md.
//
//	go run ./benchmark -seed 1                       # all four workloads
//	go run ./benchmark -workload cold_phish -seed 7  # one
//	go run ./benchmark -workload cold_phish -trace 1 # per-layer ledger
//	go run ./benchmark -baseline FILE -seed 1        # one set of ten runs per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json: with it a round has
// 2/5 of the reference sizes, which is what lets the driver's 92 runs
// (set-up included) fit its time cap.
const defaultSeconds = 10

// setups is how often an untraced run sets the system up, each time
// from nothing and on the same clock; setup_s is the median, so the one
// that grows the heap does not decide it.
const setups = 3

// defaultOutDir is where a run leaves its files: report.json
// (untraced), the span files and ledger.md (traced), and a feed round's
// store while the round lasts.
const defaultOutDir = "benchmark/out"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	baseline string
	outDir   string
}

// keepMemory restarts the process with GODEBUG=madvdontneed=0, under
// which the Go runtime releases heap it no longer needs with MADV_FREE:
// the pages stay mapped, and using them again costs no page fault. The
// discarded round then grows the heap once and the measured rounds fault
// ~0 pages instead of 10 000-60 000. On the sizing VM the host takes
// freed guest pages back within a second and a fault on such a page
// costs 10-25 us against 1.7 us on a recycled one, so those faults, not
// the program, decided whether a round ran at full or at 2/3 speed (see
// README, "Page faults"). The setting is the runtime's, read once at
// process start, hence the restart.
func keepMemory() {
	const setting = "madvdontneed=0"
	old := os.Getenv("GODEBUG")
	if strings.Contains(old, "madvdontneed=") {
		return
	}
	exe, err := os.Executable()
	if err == nil {
		env := append(os.Environ(), "GODEBUG="+strings.TrimPrefix(old+","+setting, ","))
		err = syscall.Exec(exe, os.Args, env) // returns only on failure
	}
	fmt.Fprintln(os.Stderr, "benchmark: running without", setting, "(timings will follow the host's page-fault cost):", err)
}

func main() {
	keepMemory()
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	o := options{outDir: defaultOutDir}
	fs.StringVar(&o.workload, "workload", "", "run one workload: cold_phish, cold_legit, warm_replay or feed_ingest (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "page RNG seed: the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measurement budget; round sizes are the reference sizes x seconds/25")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, span files and ledger.md under "+defaultOutDir)
	fs.StringVar(&o.baseline, "baseline", "", "run one set (ten untraced runs of every workload, seeds -seed to -seed+9, a process each) and write it to this file")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	o.trace = *trace == 1
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: want -trace 0|1, -seconds > 0 and no positional arguments")
		os.Exit(2)
	}
	if o.baseline != "" {
		if err := runSet(o, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	// A traced run reports no setup_s, so it sets up once.
	times := setups
	if o.trace {
		times = 1
	}
	s, setup, err := setUp(defaultScale, times)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "set up %d time(s): %.3v s\n", times, setup)
	correct, err := run(o, s, setup, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// setUp boots the system `times` times, each time from nothing up to a
// served instance ready for its first round (corpus build, training,
// server boot), and returns the last system with the seconds each
// set-up took. Process start is left out so that every sample measures
// the same work.
func setUp(scale, times int) (*sut, []float64, error) {
	var s *sut
	var took []float64
	for i := 0; i < times; i++ {
		s = nil
		runtime.GC() // the set-up before this one is garbage by now
		t0 := time.Now()
		var err error
		if s, err = bootSUT(scale); err != nil {
			return nil, nil, err
		}
		inst, err := s.newInstance(nil)
		if err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
		inst.close()
	}
	return s, took, nil
}

// run executes the selected workloads on the system s, which took setup
// seconds to set up, and reports whether every output check held.
// Tables go to stdout, each followed by the workload's one-line JSON
// result; progress goes to log.
func run(o options, s *sut, setup []float64, stdout, log io.Writer) (bool, error) {
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	conns := runtime.NumCPU()
	if conns > 4 {
		conns = 4
	}
	rn := &runner{s: s, conns: conns, outDir: o.outDir}

	rep := newReport(o.seed, o.seconds, o.trace)
	var ledger io.Writer = io.Discard
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	if o.trace {
		f, err := os.Create(filepath.Join(o.outDir, "ledger.md"))
		if err != nil {
			return false, err
		}
		defer f.Close()
		fmt.Fprintf(f, "# Per-layer latency ledger\n\nseed %d, budget %g s, %s, %d CPUs, commit %s\n\n",
			o.seed, o.seconds, rep.GoVersion, rep.NProc, rep.Commit)
		ledger = f
	}
	correct := true
	for _, w := range selected {
		var wr workloadReport
		var err error
		if o.trace {
			wr, err = rn.traced(w, o, log)
		} else {
			wr, err = rn.endToEnd(w, o, setup, log)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		correct = correct && wr.Correct
		rep.Workloads = append(rep.Workloads, wr)
		wr.table(io.MultiWriter(stdout, ledger))
		fmt.Fprintln(stdout, wr.resultLine())
	}
	if !o.trace {
		// Every metric with its rounds and sample counts: what a
		// baseline set keeps of a run.
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(filepath.Join(o.outDir, reportFile), append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return correct, nil
}

// endToEnd runs the untraced rounds of one workload: one discarded,
// five measured, each on a fresh instance with inputs made before its
// clock starts.
func (rn *runner) endToEnd(w workload, o options, setup []float64, log io.Writer) (workloadReport, error) {
	wr := workloadReport{Workload: w.name}
	var rounds []*round
	for i := 0; i < warmupRounds+measuredRounds; i++ {
		in, err := generate(rn.s, w, roundRNG(o.seed, w, i), scaled(w.size, o.seconds))
		if err != nil {
			return wr, err
		}
		r, err := rn.run(w, in)
		if err != nil {
			return wr, err
		}
		wr.tally(r)
		fmt.Fprintf(log, "%s round %d: %d ops in %.3f s, %d failed, %d page faults\n", w.name, i, r.ops, r.wall.Seconds(), r.failed, r.faults)
		if i >= warmupRounds {
			rounds = append(rounds, r)
			wr.UniquePages += r.unique
		}
	}
	wr.Metrics = endToEndMetrics(rounds, setup)
	return wr, nil
}

// endToEndMetrics are the numbers a user of the system would see; the
// timings among them are info rows (see README, "Demoted"). On
// feed_ingest throughput_rps is ingest_urls_per_s (URLs persisted per
// second, first POST to all persisted) and latency_p50_ms the median
// time from the POST that submitted a URL to its verdict's scored_at.
func endToEndMetrics(rounds []*round, setup []float64) []metric {
	var rps, p50, cpu, alloc, heap, read []float64
	ops, lats, reads := 0, 0, 0
	for _, r := range rounds {
		n := float64(r.ops)
		rps = append(rps, ratio(n, r.wall.Seconds()))
		p50 = append(p50, percentile(micros(r.lat), 0.5)/1e3)
		cpu = append(cpu, ratio(float64(r.cpu.Nanoseconds())/1e6, n))
		alloc = append(alloc, ratio(float64(r.allocated)/1024, n))
		heap = append(heap, float64(r.retained)/(1<<20))
		ops += r.ops
		lats += len(r.lat)
		if len(r.readLat) > 0 {
			read = append(read, percentile(micros(r.readLat), 0.5)/1e3)
			reads += len(r.readLat)
		}
	}
	out := []metric{
		overRounds("setup_s", "s", setup, len(setup)),
		overRounds("alloc_kb_per_req", "KB", alloc, ops),
		overRounds("heap_retained_mb", "MB", heap, ops),
	}
	// The timings follow the speed of the host's cores, which on the
	// sizing VM drops by a third for minutes at a time: no bound the
	// contract allows holds them, so they are printed, not bounded.
	timings := []metric{
		overRounds("throughput_rps", "1/s", rps, ops),
		overRounds("latency_p50_ms", "ms", p50, lats),
		overRounds("cpu_ms_per_req", "ms", cpu, ops),
	}
	if len(read) > 0 {
		timings = append(timings, overRounds("read_p50_ms", "ms", read, reads))
	}
	for _, m := range timings {
		m.Info = true
		out = append(out, m)
	}
	return out
}
