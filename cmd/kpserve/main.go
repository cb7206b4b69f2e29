// Command kpserve runs the concurrent phishing-scoring service. It is
// flags, a listener and a signal handler over the process assembly
// (internal/app), which builds the whole stack — model source, stage
// memo, verdict store, feed pipeline, tracer, SLO engine,
// serve.Server — and takes it down in order on SIGINT/SIGTERM: HTTP
// intake, feed drain, store.
// A verdict store that fails its final flush makes kpserve exit
// non-zero.
//
// Usage:
//
//	kpserve -addr :8080 -store verdicts/                     # demo + feed
//	kpserve -addr :8080 -model model.json -ranking data/ranking.csv -index index.json
//	kpserve -addr :8080 -deadline 250ms                      # bounded verdicts
//	kpserve -addr :8080 -slo "score:p99<250ms,avail>99.9"    # error budgets + load shedding

// The model comes from -model (artifacts written by kptrain and kpgen)
// or, without it, from a detector self-trained on the synthetic corpus,
// a one-command demo. The process serves that one model until it exits;
// to change the model, restart it with a new -model file. The synthetic
// world doubles as the crawl source, so outside -model mode -store also
// enables the feed pipeline (POST /v1/feed → crawl → score → persist).
// Structured logs go to stderr; -debug-addr binds net/http/pprof on a
// separate listener.
//
// The endpoints are listed in internal/serve's package comment; request
// formats, the store's on-disk layout and the v1 → v2 migration table
// are in README.md. cmd/kptop renders /metrics (which carries the
// /debug/slo document) and /debug/events as a live terminal dashboard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"knowphish/internal/app"
	"knowphish/internal/coalesce"
	"knowphish/internal/feed"
	"knowphish/internal/obs"
	"knowphish/internal/slo"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kpserve:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg, o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		return err
	}

	a, err := app.Start(cfg)
	if err != nil {
		return err
	}

	// The pprof listener is its own server on its own address, never the
	// scoring mux: profiling endpoints stay off the public surface unless
	// an operator binds them explicitly.
	if o.debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			cfg.Logger.Info("pprof listening", "addr", o.debugAddr)
			if err := http.ListenAndServe(o.debugAddr, dbg); err != nil {
				cfg.Logger.Error("pprof listener failed", "addr", o.debugAddr, "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return errors.Join(err, a.Close())
	}
	// Graceful shutdown on SIGINT/SIGTERM: Close stops accepting, drains
	// in-flight requests and the feed, then closes the store; a failed
	// final flush is this process's exit status.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- a.Serve(ln) }()
	select {
	case err = <-errc:
	case <-ctx.Done():
		cfg.Logger.Info("shutting down")
	}
	return errors.Join(err, a.Close())
}

// options are the command-line settings that are not app.Config fields.
type options struct {
	addr, debugAddr string
}

// parseFlags declares kpserve's flags on fs, parses args and returns
// the process configuration they describe. Every app.Config field but
// World has a flag (TestEveryConfigFieldHasAFlag).
func parseFlags(fs *flag.FlagSet, args []string) (app.Config, options, error) {
	var cfg app.Config
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.Model, "model", "", "detector JSON from kptrain (empty: train a fresh one)")
	fs.StringVar(&cfg.Ranking, "ranking", "", "popularity list CSV from kpgen (optional)")
	fs.StringVar(&cfg.Index, "index", "", "search index JSON (optional; required with -model for target identification)")
	fs.IntVar(&cfg.Workers, "workers", 0, "batch fan-out cap (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.MemoEntries, "memo-size", coalesce.DefaultMemoEntries, "entries per content-addressed memo table, score and target: ~45 bytes per scored page plus ~0.23 KB per detector positive, whatever the page size (negative: no verdict reuse, every request computes every stage)")
	fs.DurationVar(&cfg.Deadline, "deadline", 0, "default per-request scoring deadline (0 = none; requests may set their own deadline_ms)")
	fs.IntVar(&cfg.Scale, "scale", 25, "corpus scale for the self-train path")
	fs.Int64Var(&cfg.Seed, "seed", app.DefaultSeed, "seed for the self-train path")

	fs.StringVar(&cfg.StorePath, "store", "", "verdict store directory (enables GET /v1/verdicts and /v2/verdicts; with the self-train world, also POST /v1/feed)")
	fs.BoolVar(&cfg.StoreSync, "store-sync", false, "fsync the verdict store on every append")
	fs.Float64Var(&cfg.DomainRate, "domain-rate", feed.DefaultDomainRate, "per-registered-domain crawl rate in URLs/sec, with a burst of two seconds of it (negative: unlimited)")

	logLevel := fs.String("log-level", "info", "structured log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "structured log encoding: text or json")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listener for net/http/pprof profiling endpoints (empty: disabled)")

	fs.DurationVar(&cfg.SLOFast, "slo-fast", slo.DefaultFastWindow, "SLO fast burn-rate window (is it happening now?); the slow window is 12x it and the recovery hold-down 2/5 of it")
	fs.Func("slo", "SLO objective as endpoint:objective[,objective...], e.g. \"score:p99<250ms,avail>99.9\" (repeatable; arms burn-rate alerting at /debug/slo and adaptive load shedding)", func(v string) error {
		cfg.SLO = append(cfg.SLO, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return cfg, o, err
	}

	var err error
	cfg.Logger, err = obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	return cfg, o, err
}
