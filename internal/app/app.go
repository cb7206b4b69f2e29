// Package app is the process assembly: the one place that builds the
// serving stack — SLO engine (which owns the event journal) → tracer →
// detector and world → target identifier → stage memo → verdict store →
// feed scheduler → serve.Server — and the one place that takes it down
// in order. cmd/kpserve binds its flags to Config and listens;
// `kpload run -self` and BenchmarkLoadEndToEnd call Start with a
// throwaway store directory.
// What they measure is therefore what kpserve runs: one stage memo
// shared by the HTTP surface and the feed drain, the same verdict
// store, the same tracer, the same shutdown order.
//
// `make assembly-check` keeps it the only place: outside this package,
// serve.New's own default memo, tests and the frozen benchmark/
// harness, nothing constructs a server, a feed scheduler, a stage memo
// or a verdict store.
package app

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/feed"
	"knowphish/internal/obs"
	"knowphish/internal/serve"
	"knowphish/internal/slo"
	"knowphish/internal/store"
	"knowphish/internal/target"
)

// DefaultSeed is kpserve's -seed default. kpload's -seed defaults to it
// too, so the URLs kpload replays resolve in the world a default kpserve
// crawls.
const DefaultSeed = 1

// shutdownTimeout bounds how long Close waits for in-flight HTTP
// requests to finish once intake has stopped, and drainTimeout how long
// it then waits for accepted feed URLs to be scored and persisted.
const (
	shutdownTimeout = 15 * time.Second
	drainTimeout    = 30 * time.Second
)

// Config describes one process. Every field is what a kpserve flag of
// the same meaning sets; zero values take the owning package's default
// unless the field says otherwise.
type Config struct {
	// The model source, first match wins: a World the caller already
	// holds; Model, a detector file from kptrain with its optional
	// Ranking CSV and search Index; else the self-train recipe — build
	// the synthetic corpus at Scale/Seed and fit the demo detector. The
	// process serves that one detector until it exits.
	World   *World
	Model   string
	Ranking string
	Index   string
	Scale   int
	Seed    int64

	// Workers bounds concurrent pipeline executions (0 → GOMAXPROCS).
	Workers int
	// MemoEntries is the capacity of each of the stage memo's two tables,
	// score and target (negative: no verdict reuse). About 45 bytes per
	// scored page plus 0.23 KB per detector positive, whatever the page
	// size and however often it is read (see
	// coalesce.Config.MemoEntries).
	MemoEntries int
	// Deadline is the default per-request scoring budget (0 → none).
	Deadline time.Duration

	// StorePath names the verdict store's directory. Without it there
	// is no store, and without a store no feed.
	StorePath string
	StoreSync bool

	// The feed scheduler runs when there is a store and the model source
	// has a crawl source (the synthetic world), on feed's default queue
	// depth and worker count.
	DomainRate float64

	// Logger receives every subsystem's structured logs (nil → discard).
	Logger *slog.Logger
	// SLO holds objective specs ("score:p99<250ms,avail>99.9"); any arms
	// the error-budget engine and with it adaptive load shedding. The
	// tightest latency target is also the tracer's slow-exemplar
	// threshold, so the traces an operator keeps are exactly the
	// requests that burn budget (obs.DefaultSlowThreshold without one).
	SLO     []string
	SLOFast time.Duration
}

// App is a running process assembly. Server, Feed and Store are the
// parts callers read from (metrics, the zero-loss ledger); Feed and
// Store are nil when the configuration has none.
type App struct {
	Server *serve.Server
	Feed   *feed.Scheduler
	Store  store.Backend

	logger    *slog.Logger
	http      *http.Server
	stopTick  func()
	closeOnce sync.Once
	closeErr  error
}

// Start builds the process described by cfg and starts everything that
// runs in the background (feed workers, the SLO tick).
// The caller serves HTTP with Serve and ends the process with Close. On
// error, whatever was already built has been closed again.
func Start(cfg Config) (_ *App, err error) {
	a := &App{logger: cfg.Logger}
	if a.logger == nil {
		a.logger = obs.NopLogger()
	}
	defer func() {
		if err != nil {
			_ = a.Close() // the build error is the one to report
		}
	}()

	// The SLO engine comes before the tracer, which may take its slow
	// threshold from it.
	var eng *slo.Engine
	if len(cfg.SLO) > 0 {
		objs, err := slo.ParseObjectives(cfg.SLO)
		if err != nil {
			return nil, err
		}
		eng = slo.New(slo.Config{
			Objectives: objs,
			FastWindow: cfg.SLOFast,
		})
	}
	// Zero (no latency objective) takes obs.DefaultSlowThreshold.
	slow, name := eng.MinLatencyTarget()
	slowSource := ""
	if slow > 0 {
		slowSource = "slo:" + name
	}
	tracer := obs.NewTracer(obs.Config{SlowThreshold: slow, SlowSource: slowSource})
	if eng != nil {
		st := eng.Status() // the windows as derived, as /debug/slo shows them
		a.logger.Info("slo engine armed",
			"objectives", len(st.Objectives),
			"fast_window_ms", st.FastWindowMS, "slow_window_ms", st.SlowWindowMS, "hold_down_ms", st.HoldDownMS,
			"slow_threshold", tracer.SlowThreshold(), "slow_source", slowSource)
	}

	m, err := loadWorld(cfg, a.logger)
	if err != nil {
		return nil, err
	}
	identifier := target.New(m.Engine)

	// One stage memo serves every scoring path — the HTTP surface and
	// the feed drain share the same tables, so a page seen on the feed
	// warms interactive requests.
	coal := coalesce.New(coalesce.Config{MemoEntries: cfg.MemoEntries})
	a.logger.Info("stage memo armed", "memo_entries_per_table", cfg.MemoEntries)

	// The durable verdict store and the feed scheduler on top of it.
	// Feed ingestion needs a crawl source; an artifact-mode server
	// persists nothing by itself but serves /v1/verdicts over an
	// existing log.
	if cfg.StorePath != "" {
		a.Store, err = store.Open(store.Config{
			Path:   cfg.StorePath,
			Sync:   cfg.StoreSync,
			Logger: a.logger,
		})
		if err != nil {
			return nil, err
		}
		a.logger.Info("verdict store open", "path", cfg.StorePath, "records", a.Store.Len())
	}
	switch {
	case a.Store != nil && m.Fetcher != nil:
		if err := a.startFeed(cfg, m, identifier, coal, tracer); err != nil {
			return nil, err
		}
	case a.Store != nil:
		a.logger.Warn("the model source has no crawl source; POST /v1/feed disabled (GET /v1/verdicts still serves the store)")
	}

	a.Server, err = serve.New(serve.Config{
		Detector:        m.Detector,
		Identifier:      identifier,
		Workers:         cfg.Workers,
		Coalescer:       coal,
		DefaultDeadline: cfg.Deadline,
		Feed:            a.Feed,
		Store:           a.Store,
		Tracer:          tracer,
		Logger:          a.logger,
		SLO:             eng,
	})
	if err != nil {
		return nil, err
	}

	a.logger.Info("assembled", "index_docs", m.Engine.Len(), "slow_threshold", tracer.SlowThreshold())

	// Full timeout set: without Read/Write/Idle timeouts a client that
	// trickles a request body (or never reads the response) pins a
	// goroutine and its buffers indefinitely.
	a.http = &http.Server{
		Handler:           a.Server,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// The SLO engine ticks until Close: burn rates, state machine, shed
	// level.
	if eng != nil {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			eng.Run(ctx)
		}()
		a.stopTick = func() { cancel(); <-done }
	}
	return a, nil
}

// startFeed builds the feed scheduler scoring through the shared stage
// memo.
func (a *App) startFeed(cfg Config, m World, identifier *target.Identifier, coal *coalesce.Coalescer, tracer *obs.Tracer) error {
	var err error
	a.Feed, err = feed.New(feed.Config{
		Fetcher:    m.Fetcher,
		Pipeline:   &core.Pipeline{Detector: m.Detector, Identifier: identifier},
		Store:      a.Store,
		DomainRate: cfg.DomainRate,
		Tracer:     tracer,
		Logger:     a.logger,
		Score: func(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest) (core.Verdict, error) {
			return coal.Do(ctx, pipe, req, coalesce.CacheDefault, nil)
		},
	})
	return err
}

// Serve answers HTTP on ln until Close; it returns nil after a Close
// and the listener's error otherwise.
func (a *App) Serve(ln net.Listener) error {
	a.logger.Info("listening", "addr", ln.Addr().String())
	if err := a.http.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Close takes the process down in dependency order: HTTP intake stops
// and in-flight requests finish, so no new URLs arrive; the SLO tick
// stops; the feed drains — every accepted URL is scored and persisted,
// or counted dropped after drainTimeout; and only then the store takes
// its final sync and closes. It returns what failed — a store that could
// not flush is an error the process must exit non-zero on. Later calls return the first call's result.
func (a *App) Close() error {
	a.closeOnce.Do(func() { a.closeErr = a.close() })
	return a.closeErr
}

func (a *App) close() error {
	var errs []error
	if a.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		if err := a.http.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http shutdown: %w", err))
		}
		cancel()
	}
	if a.Server != nil {
		m := a.Server.Metrics()
		a.logger.Info("served", "requests", m.Requests, "pages_scored", m.PagesScored,
			"cache_hit_rate", m.CacheHitRate)
	}
	if a.stopTick != nil {
		a.stopTick()
	}
	if a.Feed != nil {
		dropped := a.Feed.Drain(time.Now().Add(drainTimeout))
		fs := a.Feed.Stats()
		a.logger.Info("feed drained", "processed", fs.Processed, "failed", fs.Failed, "dropped", dropped)
	}
	if a.Store != nil {
		ss := a.Store.Stats()
		if err := a.Store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("closing verdict store: %w", err))
		} else {
			a.logger.Info("store closed", "records", ss.Records, "appends", ss.Appends, "compactions", ss.Compactions)
		}
	}
	return errors.Join(errs...)
}
