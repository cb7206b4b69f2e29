// Command kpload is the load-generation harness for kpserve: it replays
// a URL corpus against POST /v1/feed in a closed or open loop and
// reports what the service sustained — throughput, latency percentiles
// (p50/p99/p999), error and drop rates, and the feed queue depth
// scraped from /metrics — as a human table and, with -json, as the
// LOAD_PR.json artifact the CI smoke uploads.
//
// Two subcommands:
//
//	kpload gen  -seed 42 -out corpus.txt
//	kpload run  -target http://127.0.0.1:8080 -corpus corpus.txt -qps 200 -duration 30s
//	kpload run  -self -duration 5s -json LOAD_PR.json
//
// gen emits a synthetic corpus of brand-site URLs from the same
// deterministic world a self-trained kpserve crawls. Pass kpserve's
// -seed value: gen derives the world seed the same way kpserve does, so
// every generated URL resolves in that server's world. Against a
// kpserve with a live crawler, feed it a captured corpus instead — the
// file format is one URL per line, #-comments ignored.
//
// run drives the load. With -qps 0 (the default) workers run a closed
// loop — each fires its next request when the previous response lands —
// measuring the service's throughput ceiling at that concurrency. With
// -qps > 0 arrivals are paced at the target rate regardless of response
// times (an open loop), so reported latency includes queueing delay,
// the number closed loops hide. -self skips the network target and
// starts the kpserve process assembly (internal/app: self-trained
// detector, feed pipeline draining through the shared stage memo,
// tracer, a verdict store in a temporary directory removed on exit) on
// a loopback listener, then loads it: a one-command macro benchmark
// needing nothing running, measuring the same wiring kpserve serves
// with.
//
// Overload testing: -endpoint score drives uncached POST /v1/score
// requests instead of feed batches; with -self, repeatable -slo specs
// (plus -slo-fast/-slo-slow/-slo-holddown and -serve-workers) arm the
// self server's SLO engine and admission controller. Shed 503s are
// broken out in the report (shed count, shed rate, Retry-After backoffs
// honored). -expect-shed turns the run into an overload smoke: it exits
// nonzero unless shedding engaged, the server's ledger accounts for
// every accepted request, and the engine recovered to ok afterwards —
// the OVERLOAD_PR.json artifact in nightly CI:
//
//	kpload run -self -endpoint score -serve-workers 2 \
//	    -slo "score:p99<250ms,avail>99" -slo-fast 5s -slo-slow 30s -slo-holddown 2s \
//	    -qps 300 -duration 20s -expect-shed -json OVERLOAD_PR.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
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
	if len(args) == 0 {
		return fmt.Errorf("usage: kpload <gen|run> [flags]\nrun 'kpload gen -h' or 'kpload run -h' for flags")
	}
	switch args[0] {
	case "gen":
		return runGen(args[1:])
	case "run":
		return runLoad(args[1:])
	case "-h", "-help", "--help":
		return fmt.Errorf("usage: kpload <gen|run> [flags]")
	default:
		return fmt.Errorf("unknown subcommand %q (want gen or run)", args[0])
	}
}

// runGen emits a corpus of resolvable brand-site URLs from the
// deterministic synthetic world.
func runGen(args []string) error {
	fs := flag.NewFlagSet("kpload gen", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "kpserve's -seed; the world seed is derived from it the same way kpserve derives it")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	urls := genCorpus(*seed)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# kpload corpus: %d brand-site URLs from the seed-%d world\n", len(urls), *seed)
	for _, u := range urls {
		fmt.Fprintln(bw, u)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "kpload: wrote %d URLs to %s\n", len(urls), *out)
	}
	return nil
}

// genCorpus lists every persistent brand page of the world a kpserve
// started with -seed serveSeed crawls. No corpus is built here, so the
// +1 restates dataset.Config's rule: the world seed is the seed plus one.
func genCorpus(serveSeed int64) []string {
	w := webgen.New(webgen.Config{Seed: serveSeed + 1})
	var urls []string
	for _, b := range w.Brands {
		urls = append(urls, w.BrandSiteURLs(b)...)
	}
	return urls
}

// runLoad drives one load test and prints the report.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("kpload run", flag.ContinueOnError)
	targetURL := fs.String("target", "", "kpserve base URL (e.g. http://127.0.0.1:8080); mutually exclusive with -self")
	self := fs.Bool("self", false, "boot an in-process kpserve on loopback and load that instead of -target")
	corpusPath := fs.String("corpus", "", "URL corpus file, one per line (-self defaults to the generated world corpus)")
	qps := fs.Float64("qps", 0, "open-loop target rate in URLs/second (0 = closed loop: measure the ceiling)")
	workers := fs.Int("workers", loadgen.DefaultWorkersForHost(), "concurrent request workers")
	duration := fs.Duration("duration", 10*time.Second, "run length (ignored with -requests)")
	requests := fs.Int("requests", 0, "fixed request budget instead of -duration (reproducible runs)")
	batch := fs.Int("batch", 1, "URLs per /v1/feed request")
	endpoint := fs.String("endpoint", "feed", "endpoint to load: feed (POST /v1/feed batches) or score (POST /v1/score, one uncached page per request)")
	cacheMix := fs.Float64("cache-mix", 0, "with -endpoint score: fraction (0..1) of requests replaying a small hot page set — warm traffic answered from the stage memo")
	jsonOut := fs.String("json", "", "also write the report as JSON (the LOAD_PR.json artifact)")
	// The -self server is the kpserve assembly with a throwaway verdict
	// store; these flags bind to the same app.Config fields kpserve's do.
	var selfCfg app.Config
	fs.Int64Var(&selfCfg.Seed, "seed", 42, "with -self: the service seed (detector, world)")
	fs.IntVar(&selfCfg.Scale, "scale", 20, "with -self: corpus downscale divisor for self-training (higher = faster boot)")
	fs.IntVar(&selfCfg.FeedWorkers, "feed-workers", 0, "with -self: feed pipeline workers (0 = GOMAXPROCS)")
	fs.IntVar(&selfCfg.FeedQueue, "feed-queue", 0, "with -self: feed queue depth (0 = default)")
	fs.IntVar(&selfCfg.Workers, "serve-workers", 0, "with -self: serve worker-pool bound (0 = GOMAXPROCS); lower it to make overload reachable")
	fs.Func("slo", "with -self: SLO objective spec, e.g. \"score:p99<250ms,avail>99.9\" (repeatable)", func(v string) error {
		selfCfg.SLO = append(selfCfg.SLO, v)
		return nil
	})
	fs.DurationVar(&selfCfg.SLOFast, "slo-fast", slo.DefaultFastWindow, "with -self -slo: fast burn-rate window")
	fs.DurationVar(&selfCfg.SLOSlow, "slo-slow", slo.DefaultSlowWindow, "with -self -slo: slow burn-rate window")
	fs.DurationVar(&selfCfg.SLOHoldDown, "slo-holddown", slo.DefaultHoldDown, "with -self -slo: state fall hold-down")
	expectShed := fs.Bool("expect-shed", false, "assert the run engaged load shedding, lost no accepted work, and recovered (exits nonzero otherwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expectShed && !*self {
		return fmt.Errorf("-expect-shed requires -self (it scrapes the server's ledger and waits for recovery)")
	}
	if *expectShed && len(selfCfg.SLO) == 0 {
		return fmt.Errorf("-expect-shed requires at least one -slo objective (nothing sheds without an SLO engine)")
	}
	if (*targetURL == "") == !*self {
		return fmt.Errorf("exactly one of -target or -self is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var corpus []string
	var err error
	if *corpusPath != "" {
		if corpus, err = readCorpus(*corpusPath); err != nil {
			return err
		}
	}

	if *self {
		dir, err := os.MkdirTemp("", "kpload-self-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		selfCfg.StorePath = filepath.Join(dir, "verdicts")
		fmt.Fprintf(os.Stderr, "kpload: self mode — training detector (seed %d, scale %d)\n", selfCfg.Seed, selfCfg.Scale)
		a, err := app.Start(selfCfg)
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
		*targetURL = "http://" + ln.Addr().String()
		if corpus == nil {
			corpus = genCorpus(selfCfg.Seed)
		}
	}
	if len(corpus) == 0 {
		return fmt.Errorf("-corpus is required with -target (generate one with 'kpload gen')")
	}

	fmt.Fprintf(os.Stderr, "kpload: loading %s with %d URLs (workers %d, %s)\n",
		*targetURL, len(corpus), *workers, describeBudget(*requests, *duration))
	rep, err := loadgen.Run(ctx, loadgen.Config{
		TargetURL: *targetURL,
		Corpus:    corpus,
		QPS:       *qps,
		Workers:   *workers,
		Duration:  *duration,
		Requests:  *requests,
		BatchSize: *batch,
		Endpoint:  *endpoint,
		CacheMix:  *cacheMix,
	})
	if err != nil {
		return err
	}
	fmt.Println("kpload report")
	fmt.Print(rep.Table())
	if *jsonOut != "" {
		if err := rep.WriteJSON(*jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "kpload: wrote %s\n", *jsonOut)
	}
	if *expectShed {
		return assertOverload(*targetURL, rep)
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

func describeBudget(requests int, d time.Duration) string {
	if requests > 0 {
		return fmt.Sprintf("%d requests", requests)
	}
	return d.String()
}

// readCorpus loads one URL per line; blank lines and #-comments are
// skipped.
func readCorpus(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var urls []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		urls = append(urls, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return urls, nil
}
