// Command kpload is the load-generation harness for kpserve: it replays
// the brand-site URLs of a kpserve's synthetic world against POST
// /v1/feed in a closed or open loop and reports what the service
// sustained — throughput, latency percentiles (p50/p99/p999), send lag,
// error and drop rates, and the feed queue depth the acks report — as a
// human table and, with -json, as the LOAD_PR.json artifact the CI smoke
// uploads. It exits nonzero when no request completed or any request
// failed.
//
//	kpload run -target http://127.0.0.1:8080 -seed 1 -qps 200 -duration 30s
//	kpload run -self -duration 5s -json LOAD_PR.json
//
// The URLs come from the deterministic world a self-trained kpserve
// crawls: pass that kpserve's -seed (both default to the same value) and
// every URL resolves in its world.
//
// With -qps 0 (the default) workers run a closed loop — each fires its
// next request when the previous response lands — measuring the
// service's throughput ceiling at that concurrency. With -qps > 0
// arrivals are paced at the target rate regardless of response times (an
// open loop), and each latency counts from the arrival's due time, so it
// includes the queueing delay closed loops hide; the send lag figure
// says how much of that the generator itself added. -self skips the
// network target and starts the kpserve process assembly (internal/app:
// self-trained detector, feed pipeline draining through the shared stage
// memo, tracer, a verdict store in a temporary directory removed on
// exit) on a loopback listener, then loads it: a one-command macro
// benchmark needing nothing running, measuring the same wiring kpserve
// serves with.
//
// Overload testing: -endpoint score drives uncached POST /v1/score
// requests instead of feed URLs; with -self, repeatable -slo specs
// (plus -slo-fast and -serve-workers) arm the self server's SLO engine
// and admission controller. Shed 503s are broken out in the report
// (shed count, shed rate, Retry-After backoffs honored). -expect-shed
// turns the run into an overload smoke: it exits nonzero unless
// shedding engaged, the server's ledger accounts for every accepted
// request, and the engine recovered to ok afterwards — the
// OVERLOAD_PR.json artifact in nightly CI:
//
//	kpload run -self -endpoint score -serve-workers 2 \
//	    -slo "score:p99<250ms,avail>99" -slo-fast 5s \
//	    -qps 300 -duration 20s -expect-shed -json OVERLOAD_PR.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"knowphish/internal/app"
	"knowphish/internal/loadgen"
	"knowphish/internal/serve"
	"knowphish/internal/slo"
	"knowphish/internal/webgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kpload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return errors.New("usage: kpload run [flags]\nrun 'kpload run -h' for flags")
	}
	if args[0] != "run" {
		return fmt.Errorf("unknown subcommand %q (want run)", args[0])
	}
	o, err := parseRunFlags(flag.NewFlagSet("kpload run", flag.ContinueOnError), args[1:])
	if err != nil {
		return err
	}
	return runLoad(o)
}

// genCorpus lists every persistent brand page of the world a kpserve
// started with -seed serveSeed crawls. No corpus is built here, so the
// +1 restates dataset.Config's rule: the world seed is the seed plus one
// (TestCorpusResolves fails if the two drift).
func genCorpus(serveSeed int64) []string {
	w := webgen.New(webgen.Config{Seed: serveSeed + 1})
	var urls []string
	for _, b := range w.Brands {
		urls = append(urls, w.BrandSiteURLs(b)...)
	}
	return urls
}

// runOptions are kpload run's settings.
type runOptions struct {
	target     string
	self       bool
	load       loadgen.Config // QPS, Workers, Duration, Endpoint, CacheMix
	jsonOut    string
	expectShed bool
	// serve is the -self server: the kpserve assembly with a throwaway
	// verdict store. Its Seed also names the world the corpus comes from.
	serve app.Config
}

// parseRunFlags declares kpload run's flags on fs, parses args and
// checks that they describe a runnable load test.
func parseRunFlags(fs *flag.FlagSet, args []string) (runOptions, error) {
	var o runOptions
	fs.StringVar(&o.target, "target", "", "kpserve base URL (e.g. http://127.0.0.1:8080); mutually exclusive with -self")
	fs.BoolVar(&o.self, "self", false, "boot an in-process kpserve on loopback and load that instead of -target")
	fs.Float64Var(&o.load.QPS, "qps", 0, "open-loop target rate in URLs/second (0 = closed loop: measure the ceiling)")
	fs.IntVar(&o.load.Workers, "workers", loadgen.DefaultWorkersForHost(), "concurrent request workers")
	fs.DurationVar(&o.load.Duration, "duration", 10*time.Second, "run length")
	fs.StringVar(&o.load.Endpoint, "endpoint", "feed", "endpoint to load: feed (POST /v1/feed, one URL per request) or score (POST /v1/score, one uncached page per request)")
	fs.Float64Var(&o.load.CacheMix, "cache-mix", 0, "with -endpoint score: fraction (0..1) of requests replaying a small hot page set — warm traffic answered from the stage memo")
	fs.StringVar(&o.jsonOut, "json", "", "also write the report as JSON (the LOAD_PR.json artifact)")
	// These bind to the same app.Config fields kpserve's flags do.
	fs.Int64Var(&o.serve.Seed, "seed", app.DefaultSeed, "kpserve's -seed: the world whose brand-site URLs are replayed (with -self, also the service seed)")
	fs.IntVar(&o.serve.Scale, "scale", 20, "with -self: corpus downscale divisor for self-training (higher = faster boot)")
	fs.IntVar(&o.serve.Workers, "serve-workers", 0, "with -self: serve worker-pool bound (0 = GOMAXPROCS); lower it to make overload reachable")
	fs.Func("slo", "with -self: SLO objective spec, e.g. \"score:p99<250ms,avail>99.9\" (repeatable)", func(v string) error {
		o.serve.SLO = append(o.serve.SLO, v)
		return nil
	})
	fs.DurationVar(&o.serve.SLOFast, "slo-fast", slo.DefaultFastWindow, "with -self -slo: fast burn-rate window (slow window 12x, hold-down 2/5 of it)")
	fs.BoolVar(&o.expectShed, "expect-shed", false, "assert the run engaged load shedding, lost no accepted work, and recovered (exits nonzero otherwise)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.expectShed && !o.self {
		return o, errors.New("-expect-shed requires -self (it scrapes the server's ledger and waits for recovery)")
	}
	if o.expectShed && len(o.serve.SLO) == 0 {
		return o, errors.New("-expect-shed requires at least one -slo objective (nothing sheds without an SLO engine)")
	}
	if (o.target == "") == !o.self {
		return o, errors.New("exactly one of -target or -self is required")
	}
	return o, nil
}

// runLoad drives one load test and prints the report.
func runLoad(o runOptions) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.self {
		dir, err := os.MkdirTemp("", "kpload-self-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		o.serve.StorePath = filepath.Join(dir, "verdicts")
		fmt.Fprintf(os.Stderr, "kpload: self mode — training detector (seed %d, scale %d)\n", o.serve.Seed, o.serve.Scale)
		a, err := app.Start(o.serve)
		if err != nil {
			return err
		}
		// Close drains the feed before it closes the store; the store's
		// directory goes after that.
		defer func() {
			err := a.Close()
			fs := a.Feed.Stats()
			fmt.Fprintf(os.Stderr, "kpload: self server drained — processed %d, failed %d, dropped %d, store appends %d\n",
				fs.Processed, fs.Failed, fs.Dropped, a.Store.Stats().Appends)
			if err != nil {
				fmt.Fprintln(os.Stderr, "kpload: self server shutdown:", err)
			}
		}()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() {
			if err := a.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "kpload: self server:", err)
			}
		}()
		o.target = "http://" + ln.Addr().String()
	}

	o.load.TargetURL = o.target
	o.load.Corpus = genCorpus(o.serve.Seed)
	fmt.Fprintf(os.Stderr, "kpload: loading %s with %d URLs (workers %d, %s)\n",
		o.target, len(o.load.Corpus), o.load.Workers, o.load.Duration)
	rep, err := loadgen.Run(ctx, o.load)
	if err != nil {
		return err
	}
	fmt.Println("kpload report")
	fmt.Print(rep.Table())
	if o.jsonOut != "" {
		if err := rep.WriteJSON(o.jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "kpload: wrote %s\n", o.jsonOut)
	}
	if rep.Requests == 0 || rep.Errors > 0 {
		return fmt.Errorf("%d requests completed, %d failed", rep.Requests, rep.Errors)
	}
	if o.expectShed {
		return assertOverload(o.target, rep)
	}
	return nil
}

// assertOverload verifies the overload-smoke contract after an
// -expect-shed run: the admission controller actually engaged, every
// request the server accepted was really scored (zero-loss ledger),
// and the SLO engine recovered to ok once the pressure stopped.
func assertOverload(targetURL string, rep loadgen.Report) error {
	if rep.Shed == 0 {
		return fmt.Errorf("expect-shed: no requests were shed — overload never engaged the admission controller (raise -qps or lower -serve-workers)")
	}
	if rep.RetryAfterHonored == 0 {
		return fmt.Errorf("expect-shed: no Retry-After backoff was honored despite %d sheds", rep.Shed)
	}
	client := &http.Client{Timeout: 5 * time.Second}

	// Zero-loss ledger: every 200 the load generator counted must be
	// matched by scoring work the server accounts for. A gap means an
	// accepted request was silently dropped under overload.
	var snap serve.MetricsSnapshot
	if err := getJSON(client, targetURL+"/metrics", &snap); err != nil {
		return fmt.Errorf("expect-shed: scraping ledger: %w", err)
	}
	scoredOrCached := snap.PagesScored + snap.CacheHits
	if scoredOrCached < rep.Accepted {
		return fmt.Errorf("expect-shed: ledger mismatch — %d requests accepted but only %d scored+cached", rep.Accepted, scoredOrCached)
	}
	fmt.Fprintf(os.Stderr, "kpload: expect-shed — shed %d (%.1f%%), ledger ok (%d accepted <= %d scored+cached)\n",
		rep.Shed, rep.ShedRate*100, rep.Accepted, scoredOrCached)

	// Recovery: with load stopped, the fast window drains and the
	// engine must walk back to ok with shedding disengaged.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var status slo.Status
		if err := getJSON(client, targetURL+"/debug/slo", &status); err != nil {
			return fmt.Errorf("expect-shed: polling /debug/slo: %w", err)
		}
		if status.State == "ok" && status.ShedLevel == 0 {
			fmt.Fprintln(os.Stderr, "kpload: expect-shed — engine recovered to ok, shedding disengaged")
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("expect-shed: engine did not recover (state %s, shed level %d)", status.State, status.ShedLevel)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// getJSON fetches a JSON document.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
