// Command kpserve runs the concurrent phishing-scoring service: it loads
// a trained detector (kptrain), the offline popularity ranking (kpgen)
// and the legitimate-web search index, then serves the detection →
// target-identification pipeline over HTTP until interrupted.
//
// With no -model, kpserve bootstraps itself: it builds a synthetic
// corpus, trains a detector and serves against the corpus search index —
// a one-command demo of the whole system. In that mode the synthetic
// world doubles as the crawl source, so -store also enables the
// continuous feed-ingestion pipeline (POST /v1/feed → crawl → score →
// persist, queryable at GET /v1/verdicts and, with cursor pagination,
// GET /v2/verdicts).
//
// Verdicts persist in a segmented write-ahead log (-store names its
// directory); a legacy single-file JSONL log found at the -store path
// is migrated into segments on first open and kept, byte-identical, as
// "<path>.pre-migration.jsonl".
//
// Repeatable -feed-src flags (NAME=KIND:URL; kinds json, csv, ndjson)
// attach external feed connectors on top of the feed pipeline: each is
// polled with a resumable cursor (persisted under -feed-src-cursor),
// rate-shared (-feed-src-rate) and deduped before its URLs enter the
// scheduler, and every resulting verdict carries the source name in its
// provenance — filterable at GET /v2/verdicts?source=NAME. Per-source
// health (cursor, lag, rejects by reason) is exported at /metrics.
//
// Usage:
//
//	kpserve -addr :8080 -store verdicts/                     # demo + feed
//	kpserve -addr :8080 -store verdicts/ -feed-src-cursor cursors/ \
//	        -feed-src phishtank=json:https://feed.example/phish.json \
//	        -feed-src ct=ndjson:https://ct.example/stream            # external feed connectors
//	kpserve -addr :8080 -model model.json -ranking data/ranking.csv -index index.json
//	kpserve -addr :8080 -deadline 250ms -explain top         # bounded, explainable verdicts
//	kpserve -addr :8080 -registry models/ -store verdicts/ \
//	        -shadow-frac 0.25 -auto-retrain                  # full model lifecycle
//
// With -registry the detector is served from a versioned model registry
// behind an atomic pointer: GET/POST /v2/models and /v2/models/promote
// manage versions, and a promotion hot-swaps the champion with zero
// downtime — no restart, no dropped requests. Combined with -store (and
// the self-train world as crawl source), the drift monitor watches feed
// traffic, -auto-retrain closes the loop (drift flag → background
// retrain from stored verdicts → challenger shadow-scores -shadow-frac
// of traffic → promotion gate swaps), and every verdict carries the
// model_version that produced it.
//
// Repeatable -slo flags ("score:p99<250ms,avail>99.9") arm the SLO
// engine: multi-window multi-burn-rate error budgets (tuned by
// -slo-fast/-slo-slow/-slo-holddown) drive an ok → warn → page state
// machine at GET /debug/slo (and in /healthz and /metrics), a
// fixed-size operational event journal at GET /debug/events, and the
// adaptive admission controller — under sustained budget burn the
// server sheds lowest-priority request classes first with 503 +
// Retry-After until the burn subsides. With a latency objective the
// -trace-slow default derives from the tightest SLO target. cmd/kptop
// renders the whole surface as a live terminal dashboard.
//
// Endpoints: POST /v2/score, POST /v2/score/batch, POST /v2/target,
// POST /v2/score/stream
// (NDJSON), GET/POST /v2/models, POST /v2/models/promote, POST
// /v1/score, POST /v1/score/batch, POST /v1/target, POST /v1/feed,
// GET /v1/verdicts, GET /v2/verdicts, GET /healthz, GET /metrics (JSON;
// ?format=prometheus for the scrape surface), GET /debug/traces
// (recent + slow/error request traces), GET /debug/slo and GET
// /debug/events. Structured logs go to stderr (-log-level,
// -log-format); per-stage tracing is on by default (-trace=false
// disables it) and -debug-addr binds net/http/pprof on a separate
// listener. See README.md for request formats and the v1 → v2
// migration table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/drift"
	"knowphish/internal/feed"
	"knowphish/internal/feedsrc"
	"knowphish/internal/ml"
	"knowphish/internal/obs"
	"knowphish/internal/ranking"
	"knowphish/internal/registry"
	"knowphish/internal/search"
	"knowphish/internal/serve"
	"knowphish/internal/slo"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kpserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		modelPath = flag.String("model", "", "detector JSON from kptrain (empty: train a fresh one)")
		rankPath  = flag.String("ranking", "", "popularity list CSV from kpgen (optional)")
		indexPath = flag.String("index", "", "search index JSON (optional; required with -model for target identification)")
		workers   = flag.Int("workers", 0, "batch fan-out cap (0 = GOMAXPROCS)")
		maxBatch  = flag.Int("max-batch", serve.DefaultMaxBatch, "max pages per batch or stream request")
		memoSize  = flag.Int("memo-size", coalesce.DefaultMemoEntries, "entries per content-addressed stage memo table (negative: no verdict reuse, every request computes every stage)")
		deadline  = flag.Duration("deadline", 0, "default per-request scoring deadline (0 = none; requests may set their own deadline_ms)")
		explain   = flag.String("explain", "none", "default explain level for v2 requests: none, top or full")
		topN      = flag.Int("explain-top", 0, "default contribution count of a 'top' explanation (0 = library default)")
		scale     = flag.Int("scale", 25, "corpus scale for the self-train path")
		seed      = flag.Int64("seed", 1, "seed for the self-train path")

		storePath    = flag.String("store", "", "verdict store path (enables GET /v1/verdicts and /v2/verdicts; with the self-train world, also POST /v1/feed). The segmented engine uses it as a directory; a legacy JSONL log found there is migrated in place on first open")
		segmentBytes = flag.Int("segment-bytes", store.DefaultSegmentBytes, "segmented engine: bytes per WAL segment before it seals")
		storeSync    = flag.Bool("store-sync", false, "fsync the verdict store on every append")
		compactEvery = flag.Int("compact-every", store.DefaultCompactEvery, "appends between verdict-store compactions (negative: never)")
		feedQueue    = flag.Int("feed-queue", feed.DefaultQueueDepth, "feed queue depth, the backpressure bound")
		feedWorkers  = flag.Int("feed-workers", 0, "feed crawl/score workers (0 = GOMAXPROCS)")
		domainRate   = flag.Float64("domain-rate", feed.DefaultDomainRate, "per-registered-domain crawl rate in URLs/sec (negative: unlimited)")
		domainBurst  = flag.Int("domain-burst", feed.DefaultDomainBurst, "per-domain token-bucket burst")
		feedRetries  = flag.Int("feed-retries", feed.DefaultMaxAttempts, "fetch attempts per URL before the failure is persisted")
		feedExplain  = flag.String("feed-explain", "none", "explain level for feed-ingested verdicts (persisted evidence): none, top or full")

		feedSrcCursor   = flag.String("feed-src-cursor", "", "directory persisting each connector's resume cursor across restarts (empty: in-memory only)")
		feedSrcRate     = flag.Float64("feed-src-rate", 0, "per-connector delivery cap in URLs/sec; excess is shed, not queued (0 = unlimited)")
		feedSrcInterval = flag.Duration("feed-src-interval", feedsrc.DefaultInterval, "idle poll interval per connector (a poll that yielded items re-polls immediately)")
		maxExplain      = flag.Int("store-max-explain", 0, "verdict-store explanation size cap in bytes (0 = default, negative = never persist evidence)")
		drainWait       = flag.Duration("drain-timeout", 30*time.Second, "max wait for the feed to drain on shutdown")

		registryDir = flag.String("registry", "", "model registry directory (versioned artifacts, /v2/models, zero-downtime champion hot-swap)")
		shadowFrac  = flag.Float64("shadow-frac", 0.25, "fraction of feed traffic the challenger shadow-scores (with -registry)")
		driftWindow = flag.Int("drift-window", drift.DefaultWindow, "drift-monitor sliding window in observations (with -registry)")
		autoRetrain = flag.Bool("auto-retrain", false, "close the loop: drift flag triggers retrain from the store, gated challenger promotion follows")

		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "structured log encoding: text or json")
		traceOn   = flag.Bool("trace", true, "record per-stage request traces (GET /debug/traces, stage histograms in /metrics)")
		traceSlow = flag.Duration("trace-slow", obs.DefaultSlowThreshold, "slow-request threshold: traces over it are kept as exemplars and logged (sampled); with a latency -slo the default derives from the tightest target instead")
		debugAddr = flag.String("debug-addr", "", "separate listener for net/http/pprof profiling endpoints (empty: disabled)")

		sloFast     = flag.Duration("slo-fast", slo.DefaultFastWindow, "SLO fast burn-rate window (is it happening now?)")
		sloSlow     = flag.Duration("slo-slow", slo.DefaultSlowWindow, "SLO slow burn-rate window (is it significant?)")
		sloHold     = flag.Duration("slo-holddown", slo.DefaultHoldDown, "SLO hysteresis: burn must stay below a threshold this long before state or shed level steps down")
		journalSize = flag.Int("journal-size", 0, "operational event journal capacity in events (GET /debug/events; 0 = default)")
	)
	var feedSrcs multiFlag
	flag.Var(&feedSrcs, "feed-src", "external feed connector as NAME=KIND:URL, repeatable; KIND is json (PhishTank/OpenPhish-style feed), csv (ranked benign list) or ndjson (CT-log-style stream)")
	var sloSpecs multiFlag
	flag.Var(&sloSpecs, "slo", "SLO objective as endpoint:objective[,objective...], e.g. \"score:p99<250ms,avail>99.9\" (repeatable; arms burn-rate alerting at /debug/slo and adaptive load shedding)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	// The SLO engine and the event journal are built before the tracer:
	// with a latency objective and no explicit -trace-slow, the slow-
	// exemplar threshold derives from the tightest SLO target, so the
	// traces an operator keeps are exactly the requests that burn budget.
	journal := obs.NewJournal(*journalSize)
	var sloEng *slo.Engine
	if len(sloSpecs) > 0 {
		objs, err := slo.ParseObjectives(sloSpecs)
		if err != nil {
			return err
		}
		sloEng = slo.New(slo.Config{
			Objectives: objs,
			FastWindow: *sloFast,
			SlowWindow: *sloSlow,
			HoldDown:   *sloHold,
			Journal:    journal,
		})
	}
	slowThreshold, slowSource := *traceSlow, ""
	traceSlowSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace-slow" {
			traceSlowSet = true
		}
	})
	if !traceSlowSet {
		if target, name := sloEng.MinLatencyTarget(); target > 0 {
			slowThreshold, slowSource = target, "slo:"+name
		}
	}
	tracer := obs.NewTracer(obs.Config{SlowThreshold: slowThreshold, SlowSource: slowSource, Disabled: !*traceOn})
	if sloEng != nil {
		logger.Info("slo engine armed",
			"objectives", len(sloEng.Objectives()),
			"fast_window", *sloFast, "slow_window", *sloSlow, "holddown", *sloHold,
			"slow_threshold", slowThreshold, "slow_source", slowSource)
	}

	explainLevel, err := core.ParseExplainLevel(*explain)
	if err != nil {
		return err
	}
	feedExplainLevel, err := core.ParseExplainLevel(*feedExplain)
	if err != nil {
		return err
	}

	var (
		det    *core.Detector
		engine *search.Engine
		world  *webgen.World
		reg    *registry.Registry
		rank   *ranking.List
	)
	if *registryDir != "" {
		// Registry mode rides the self-train world: the corpus supplies
		// the search index, the crawl source and the popularity ranking,
		// while the models come from (or bootstrap into) the registry.
		if *modelPath != "" {
			return errors.New("-registry and -model are mutually exclusive; import a model file with kptrain -registry")
		}
		logger.Info("building corpus", "scale", *scale)
		corpus, err := buildCorpus(*scale, *seed)
		if err != nil {
			return err
		}
		engine, world = corpus.Engine, corpus.World
		rank = corpus.World.Ranking()
		if reg, err = registry.Open(*registryDir, rank); err != nil {
			return err
		}
		if reg.ChampionVersion() == "" {
			logger.Info("registry has no champion; training the initial version", "registry", *registryDir)
			if err := bootstrapChampion(reg, corpus, *seed); err != nil {
				return err
			}
		}
		m, _ := reg.Champion()
		logger.Info("serving champion",
			"version", m.Manifest.Version, "hash", m.Manifest.Hash[:12], "registered_versions", reg.Len())
	} else {
		var err error
		det, engine, world, err = loadArtifacts(*modelPath, *rankPath, *indexPath, *scale, *seed, logger)
		if err != nil {
			return err
		}
	}
	identifier := target.New(engine)

	// One stage memo serves every scoring path — the HTTP surface and
	// the feed drain share the same memo tables, so a page seen on the
	// feed warms interactive requests.
	coal := coalesce.New(coalesce.Config{MemoEntries: *memoSize})
	logger.Info("stage memo armed", "memo_entries_per_table", *memoSize)

	// The durable verdict store and the feed scheduler on top of it.
	// Feed ingestion needs a crawl source; only the self-train path has
	// one (the synthetic world). An artifact-mode server still persists
	// nothing by itself but serves /v1/verdicts over an existing log.
	var st store.Backend
	var sched *feed.Scheduler
	var lc *drift.Lifecycle
	if *storePath != "" {
		st, err = store.Open(store.Config{
			Path:            *storePath,
			Sync:            *storeSync,
			CompactEvery:    *compactEvery,
			MaxExplainBytes: *maxExplain,
			SegmentBytes:    *segmentBytes,
			Logger:          logger,
		})
		if err != nil {
			return err
		}
		defer st.Close()
		logger.Info("verdict store open",
			"path", *storePath, "engine", st.Stats().Backend, "records", st.Len())
		if world != nil {
			// The full lifecycle loop needs the registry (models), the
			// store (retrain corpus) and the world (re-crawl source) —
			// all present here.
			if reg != nil {
				lc, err = drift.NewLifecycle(drift.LifecycleConfig{
					Registry:       reg,
					Store:          st,
					Fetcher:        world,
					Rank:           rank,
					Monitor:        drift.Config{Window: *driftWindow},
					ShadowFraction: *shadowFrac,
					AutoRetrain:    *autoRetrain,
					Seed:           *seed,
					Logger:         logger,
				})
				if err != nil {
					return err
				}
				defer lc.Close()
				logger.Info("drift monitor armed",
					"window", *driftWindow, "shadow_frac", *shadowFrac, "auto_retrain", *autoRetrain)
			}
			pipeDet := det
			if reg != nil {
				pipeDet = reg.Current()
			}
			feedCfg := feed.Config{
				Fetcher:     world,
				Pipeline:    &core.Pipeline{Detector: pipeDet, Identifier: identifier},
				Detectors:   detectorSource(reg),
				Store:       st,
				Workers:     *feedWorkers,
				QueueDepth:  *feedQueue,
				DomainRate:  *domainRate,
				DomainBurst: *domainBurst,
				MaxAttempts: *feedRetries,
				Explain:     feedExplainLevel,
				Tracer:      tracer,
				Logger:      logger,
			}
			if lc != nil {
				feedCfg.OnVerdict = lc.OnVerdict
			}
			feedCfg.Score = func(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest) (core.Verdict, error) {
				return coal.Do(ctx, pipe, req, coalesce.CacheDefault, nil)
			}
			if sched, err = feed.New(feedCfg); err != nil {
				return err
			}
		} else {
			logger.Warn("no crawl source with -model; POST /v1/feed disabled (GET /v1/verdicts still serves the store)")
		}
	} else if reg != nil && *autoRetrain {
		logger.Warn("-auto-retrain needs -store (the retrain corpus); running registry without the retrain loop")
	}

	// External feed connectors fan into the scheduler; they only make
	// sense when the feed pipeline exists to receive them.
	var srcMux *feedsrc.Mux
	if len(feedSrcs) > 0 {
		if sched == nil {
			return errors.New("-feed-src needs the feed pipeline: run with -store and a crawl source (the self-train world)")
		}
		sources, err := buildFeedSources(feedSrcs)
		if err != nil {
			return err
		}
		rates := make(map[string]float64)
		if *feedSrcRate > 0 {
			for _, s := range sources {
				rates[s.Name()] = *feedSrcRate
			}
		}
		srcMux, err = feedsrc.NewMux(feedsrc.MuxConfig{
			Sink:      sched,
			Sources:   sources,
			Interval:  *feedSrcInterval,
			Rates:     rates,
			CursorDir: *feedSrcCursor,
			Logger:    logger,
		})
		if err != nil {
			return err
		}
		for _, s := range sources {
			logger.Info("feed source armed", "source", s.Name(), "cursor", s.Cursor())
		}
	}

	srv, err := serve.New(serve.Config{
		Detector:        det,
		Registry:        reg,
		Lifecycle:       lc,
		Identifier:      identifier,
		Workers:         *workers,
		MaxBatch:        *maxBatch,
		Coalescer:       coal,
		DefaultDeadline: *deadline,
		DefaultExplain:  explainLevel,
		ExplainTopN:     *topN,
		Feed:            sched,
		FeedSources:     srcMux,
		Store:           st,
		Tracer:          tracer,
		Logger:          logger,
		SLO:             sloEng,
		Journal:         journal,
	})
	if err != nil {
		return err
	}

	// The pprof listener is its own server on its own address, never the
	// scoring mux: profiling endpoints stay off the public surface unless
	// an operator binds them explicitly.
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Error("pprof listener failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	// Full timeout set: without Read/Write/Idle timeouts a client that
	// trickles a request body (or never reads the response) pins a
	// goroutine and its buffers indefinitely.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      120 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, then drain
	// in-flight requests before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The SLO engine ticks for the server's whole life (nil-safe no-op
	// when no -slo was given): burn rates, state machine, shed level.
	go sloEng.Run(ctx, 0)

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "index_docs", engine.Len(),
			"tracing", tracer.Enabled(), "slow_threshold", tracer.SlowThreshold())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// Drain the feed after HTTP intake stops: every accepted URL is
	// either scored-and-persisted or reported dropped.
	if sched != nil {
		// Connectors stop first: no new URLs arrive while the queue
		// drains, and each source's cursor is already persisted per poll.
		if srcMux != nil {
			srcMux.Close()
			for name, ss := range srcMux.Stats() {
				logger.Info("feed source stopped", "source", name,
					"cursor", ss.Cursor, "enqueued", ss.Enqueued, "fetch_errors", ss.FetchErrors)
			}
		}
		dropped := sched.Drain(time.Now().Add(*drainWait))
		fs := sched.Stats()
		logger.Info("feed drained",
			"processed", fs.Processed, "failed", fs.Failed, "dropped", dropped)
	}
	if st != nil {
		ss := st.Stats()
		logger.Info("store closed", "records", ss.Records, "compactions", ss.Compactions)
	}
	if lc != nil {
		ls := lc.Status()
		logger.Info("lifecycle summary", "champion", ls.ChampionVersion,
			"retrains", ls.Retrains, "promotions", ls.Promotions, "drift_flagged", ls.Drift.Flagged)
	}
	m := srv.Metrics()
	logger.Info("served", "requests", m.Requests, "pages_scored", m.PagesScored,
		"cache_hit_rate", m.CacheHitRate)
	return <-errc
}

// loadArtifacts assembles the detector and search index, either from the
// saved artifacts or by training a fresh stack on the synthetic world.
// The returned world is non-nil only on the self-train path, where it
// serves as the feed's crawl source.
func loadArtifacts(modelPath, rankPath, indexPath string, scale int, seed int64, logger *slog.Logger) (*core.Detector, *search.Engine, *webgen.World, error) {
	if modelPath == "" {
		if rankPath != "" || indexPath != "" {
			return nil, nil, nil, errors.New("-ranking/-index require -model; the self-train path would silently ignore them")
		}
		return selfTrain(scale, seed, logger)
	}

	var rank *ranking.List
	if rankPath == "" {
		// The ranking is not embedded in the model (see Detector.Save);
		// without it the popularity feature sees every domain as
		// unranked — a distribution the model never trained on.
		logger.Warn("no -ranking; popularity feature will treat all domains as unranked")
	}
	if rankPath != "" {
		f, err := os.Open(rankPath)
		if err != nil {
			return nil, nil, nil, err
		}
		rank, err = ranking.Read(f)
		f.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("reading ranking %s: %w", rankPath, err)
		}
	}

	f, err := os.Open(modelPath)
	if err != nil {
		return nil, nil, nil, err
	}
	det, err := core.Load(f, rank)
	f.Close()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading model %s: %w", modelPath, err)
	}

	engine := search.NewEngine()
	if indexPath != "" {
		f, err := os.Open(indexPath)
		if err != nil {
			return nil, nil, nil, err
		}
		engine, err = search.Load(f)
		f.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("loading index %s: %w", indexPath, err)
		}
	} else {
		logger.Warn("no -index; target identification will mostly report suspicious")
	}
	return det, engine, nil, nil
}

// buildCorpus generates the synthetic world and evaluation campaigns —
// the substrate of the self-train and registry modes.
func buildCorpus(scale int, seed int64) (*dataset.Corpus, error) {
	return dataset.Build(dataset.Config{
		Seed:              seed,
		Scale:             scale,
		World:             webgen.Config{Seed: seed + 1},
		SkipLanguageTests: true,
	})
}

// trainOnCorpus fits the demo detector on the corpus training campaigns.
func trainOnCorpus(corpus *dataset.Corpus, seed int64) (*core.Detector, int, int, error) {
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	det, err := core.Train(snaps, labels, core.TrainConfig{
		GBM:  ml.GBMConfig{Trees: 100, MaxDepth: 4, Subsample: 0.8, MinLeaf: 5, Seed: seed + 2},
		Rank: corpus.World.Ranking(),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	phish := 0
	for _, y := range labels {
		phish += y
	}
	return det, phish, len(labels) - phish, nil
}

// bootstrapChampion trains and promotes the registry's first version.
func bootstrapChampion(reg *registry.Registry, corpus *dataset.Corpus, seed int64) error {
	det, phish, legit, err := trainOnCorpus(corpus, seed)
	if err != nil {
		return err
	}
	man, err := reg.Save(det, registry.TrainingStats{
		Samples:    phish + legit,
		Phish:      phish,
		Legitimate: legit,
		Source:     "synthetic-corpus",
	}, "kpserve bootstrap")
	if err != nil {
		return err
	}
	_, err = reg.SetChampion(man.Version)
	return err
}

// detectorSource adapts the registry to the feed's hot-swap seam,
// avoiding a typed-nil interface when no registry is configured.
func detectorSource(reg *registry.Registry) core.DetectorSource {
	if reg == nil {
		return nil
	}
	return reg
}

// selfTrain builds a corpus and trains a detector — the zero-artifact
// demo path.
func selfTrain(scale int, seed int64, logger *slog.Logger) (*core.Detector, *search.Engine, *webgen.World, error) {
	logger.Info("no -model given; self-training", "scale", scale)
	corpus, err := buildCorpus(scale, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	det, _, _, err := trainOnCorpus(corpus, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return det, corpus.Engine, corpus.World, nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// buildFeedSources parses -feed-src specs (NAME=KIND:URL) into
// connectors. Names must be unique — they tag verdict provenance and
// name cursor files.
func buildFeedSources(specs []string) ([]feedsrc.Source, error) {
	seen := make(map[string]bool, len(specs))
	sources := make([]feedsrc.Source, 0, len(specs))
	for _, spec := range specs {
		name, rest, ok := strings.Cut(spec, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-feed-src %q: want NAME=KIND:URL", spec)
		}
		kind, url, ok := strings.Cut(rest, ":")
		if !ok || url == "" {
			return nil, fmt.Errorf("-feed-src %q: want NAME=KIND:URL", spec)
		}
		if seen[name] {
			return nil, fmt.Errorf("-feed-src %q: duplicate source name %q", spec, name)
		}
		seen[name] = true
		switch kind {
		case "json":
			sources = append(sources, feedsrc.NewJSONFeed(name, url, nil))
		case "csv":
			sources = append(sources, feedsrc.NewRankedCSV(name, url, nil, 0))
		case "ndjson":
			sources = append(sources, feedsrc.NewNDJSONStream(name, url, nil))
		default:
			return nil, fmt.Errorf("-feed-src %q: unknown kind %q (want json, csv or ndjson)", spec, kind)
		}
	}
	return sources, nil
}
