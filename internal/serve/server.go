// Package serve exposes the detection → target-identification pipeline
// as a concurrent HTTP JSON service — the paper's system as production
// infrastructure rather than a batch experiment. One process loads a
// trained detector, the popularity ranking and the legitimate-web search
// index, then answers:
//
//	POST /v2/score         score one page → rich Verdict (label,
//	                       evidence, timings; per-request deadline)
//	POST /v2/score/batch   many pages, one set of options → the same
//	                       verdict documents in request order
//	POST /v2/score/stream  NDJSON in, verdicts streamed back as they
//	                       complete (per-item deadlines, stops on
//	                       client disconnect)
//	POST /v2/target        run target identification only (Verdict-era
//	                       document with timings)
//	POST /v1/score         frozen wire format; adapter over v2
//	POST /v1/score/batch   frozen wire format; dedupes identical pages
//	POST /v1/target        frozen wire format; adapter over v2
//	POST /v1/feed          enqueue URLs into the ingestion pipeline
//	GET  /v1/verdicts      query the durable verdict store (frozen
//	                       wire format; adapter over the v2 path)
//	GET  /v2/verdicts      cursor-paginated verdict queries with
//	                       target, url, phish_only and time-range
//	                       filters (next_cursor resumes the scan)
//	GET  /healthz          liveness, threshold and build metadata
//	GET  /metrics          request counts, latency percentiles, cache,
//	                       feed and store stats
//	                       (?format=prometheus for the scrape surface)
//	GET  /debug/traces     recent + slow/error request traces
//	GET  /debug/slo        error-budget state, burn rates, shed level
//	GET  /debug/events     operational event journal
//
// The files follow the request's way through the server: wire.go (the
// request and response documents and page resolution), decode.go (body
// → document), middleware.go (admission, tracing, SLO observation,
// reply), score.go (the score path: every scoring endpoint but
// /v1/score/batch is an adapter over scorePage; that one resolves every
// page, dedupes by content key and scores through scoreSnap; both target
// endpoints are adapters over identifyPage) with stream.go for the
// NDJSON framing, verdicts.go (feed intake and store reads), and ops.go
// with metrics.go / prometheus.go (health, metrics, debug).
//
// A server scores with one detector for its whole lifetime: New builds
// the one pipeline every request goes through. To change the model,
// restart the process with a new artifact.
//
// Every scoring path is context-aware end to end: the request context
// (plus an optional per-request deadline) reaches the pipeline through
// core.AnalyzeCtx, so a disconnected client or an expired budget stops
// consuming CPU at the next stage boundary instead of burning a worker
// slot to completion. The v1 endpoints are thin adapters over the same
// machinery and keep their historical wire format byte for byte (pinned
// by golden tests).
//
// Scoring fans out over the shared worker-pool primitive
// (internal/pool) under a server-wide concurrency bound, so a burst of
// concurrent batches cannot oversubscribe the cores; a page waits for a
// worker slot once and is resolved, hashed and scored while holding it.
// The content-addressed stage memo (internal/coalesce), keyed by sha256
// over landing URL and content, absorbs repeated lookups of the same
// page — phishing campaigns funnel many lures to one landing page —
// without letting one client's submission define the verdict for a URL
// it does not own.
package serve

import (
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/feed"
	"knowphish/internal/obs"
	"knowphish/internal/slo"
	"knowphish/internal/store"
	"knowphish/internal/target"
)

// Request limits.
const (
	// DefaultMaxBatch bounds the page count of one batch request, the
	// item count of one stream request and the URL count of one feed
	// request.
	DefaultMaxBatch = 1024
	// DefaultMaxBodyBytes bounds request body size.
	DefaultMaxBodyBytes = 16 << 20
	// DefaultVerdictsLimit is the record cap of a verdicts response
	// when the request does not set one.
	DefaultVerdictsLimit = 100
	// MaxVerdictsLimit is the largest accepted verdicts-query limit;
	// /v2/verdicts pages beyond it via next_cursor.
	MaxVerdictsLimit = 1000
)

// Config assembles a Server.
type Config struct {
	// Detector is the trained classifier, frozen for the server's
	// lifetime. Required.
	Detector *core.Detector
	// Identifier is the target identification system. Required.
	Identifier *target.Identifier
	// Workers bounds concurrent pipeline executions across the whole
	// server and caps the per-batch fan-out (0 → GOMAXPROCS).
	Workers int
	// DefaultDeadline is the per-request scoring budget applied when a
	// request does not set its own deadline_ms (0 → no deadline). It
	// bounds pipeline work, not time spent queued for a worker slot.
	DefaultDeadline time.Duration
	// Coalescer optionally injects a pre-built stage memo shared with
	// other subsystems (the process assembly, internal/app, scores the
	// feed drain through the same one, so feed traffic warms the HTTP
	// surface's memo tables and vice versa). When nil, the server builds
	// its own at coalesce.DefaultMemoEntries.
	Coalescer *coalesce.Coalescer
	// Feed is the continuous ingestion scheduler backing POST /v1/feed
	// (optional; without it the endpoint answers 503).
	Feed *feed.Scheduler
	// Store is the durable verdict store backing GET /v1/verdicts and
	// GET /v2/verdicts (optional; without it both endpoints answer
	// 503); see store.Open.
	Store store.Backend
	// Tracer records per-request pipeline traces served at
	// GET /debug/traces and summarized in /metrics (optional; nil
	// disables tracing — every instrumented path is nil-safe).
	Tracer *obs.Tracer
	// SLO is the error-budget engine: it turns completed requests into
	// SLI events, drives the ok/warn/page state at GET /debug/slo and
	// /healthz, and its shed level powers the adaptive admission
	// controller (optional; nil disables SLO tracking and shedding).
	// The caller owns ticking it (slo.Engine.Run). Its event journal is
	// what GET /debug/events serves.
	SLO *slo.Engine
	// Clock feeds the windowed per-endpoint histograms, for
	// deterministic tests (nil → time.Now).
	Clock func() time.Time
	// Logger receives the server's structured logs: request-scoped slow
	// and error records carrying trace ids (nil → discard).
	Logger *slog.Logger
}

// Server is the HTTP scoring service. It is an http.Handler; wire it
// into any mux or server. All handlers are safe for concurrent use.
type Server struct {
	// cfg is the configuration with its zero values resolved; every
	// setting and wired subsystem is read from it.
	cfg Config
	// pipe is the detector and identifier every page is scored with.
	pipe *core.Pipeline
	// coal is the content-addressed stage memo every scoring call goes
	// through — the only verdict reuse in the server.
	coal    *coalesce.Coalescer
	metrics *Metrics
	// classes lists every endpoint class, for metrics iteration; batch
	// is the one whose histogram the batch latency figures read.
	classes []*endpointClass
	batch   *endpointClass
	// slowSeen counts slow requests for the sampled slow-request log:
	// logging every slow request during an incident would flood the log
	// exactly when it matters most, so only every slowLogSample-th one
	// (and the first) is written. /debug/traces retains them all.
	slowSeen atomic.Int64
	mux      *http.ServeMux
	// scoreSem bounds CPU-heavy work (parsing, hashing, scoring,
	// identification) server-wide: per-request fan-out alone would let
	// B concurrent batches run B × workers goroutines and oversubscribe
	// the cores. See boundedCtx.
	scoreSem chan struct{}
}

// New validates the configuration and builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.Detector == nil {
		return nil, errors.New("serve: Config.Detector is required")
	}
	if cfg.Identifier == nil {
		return nil, errors.New("serve: Config.Identifier is required")
	}
	s := &Server{
		cfg:     cfg,
		pipe:    &core.Pipeline{Detector: cfg.Detector, Identifier: cfg.Identifier},
		metrics: newMetrics(),
	}
	if s.cfg.Logger == nil {
		s.cfg.Logger = obs.NopLogger()
	}
	if s.cfg.Clock == nil {
		s.cfg.Clock = time.Now
	}
	if s.cfg.Workers <= 0 {
		s.cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s.scoreSem = make(chan struct{}, s.cfg.Workers)
	s.coal = cfg.Coalescer
	if s.coal == nil {
		s.coal = coalesce.New(coalesce.Config{})
	}
	// Endpoint classes group routes for latency, SLO observation and
	// admission control (see admission.go). Only the request endpoints
	// carry a latency histogram: healthz and metrics probes are counted
	// but excluded so liveness polling cannot dilute the percentiles
	// operators alert on. The stream endpoint is likewise excluded: a
	// stream's duration is the client's item count, not the server's
	// latency.
	clsScore := s.newClass("score", prioInteractive, true)
	clsTarget := s.newClass("target", prioInteractive, true)
	clsBatch := s.newClass("batch", prioBatch, true)
	clsStream := s.newClass("stream", prioBatch, false)
	clsFeed := s.newClass("feed", prioFeed, true)
	clsVerdicts := s.newClass("verdicts", prioBatch, true)
	clsOps := s.newClass("ops", prioOps, false)
	s.batch = clsBatch
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v2/score", s.instrument(s.post(s.handleScoreV2), clsScore))
	s.mux.HandleFunc("/v2/score/batch", s.instrument(s.post(s.handleScoreBatchV2), clsBatch))
	s.mux.HandleFunc("/v2/target", s.instrument(s.post(s.handleTargetV2), clsTarget))
	s.mux.HandleFunc("/v2/score/stream", s.instrument(s.post(s.handleScoreStream), clsStream))
	s.mux.HandleFunc("/v1/score", s.instrument(s.post(s.handleScore), clsScore))
	s.mux.HandleFunc("/v1/score/batch", s.instrument(s.post(s.handleScoreBatch), clsBatch))
	s.mux.HandleFunc("/v1/target", s.instrument(s.post(s.handleTarget), clsTarget))
	s.mux.HandleFunc("/v1/feed", s.instrument(s.post(s.handleFeed), clsFeed))
	s.mux.HandleFunc("/v1/verdicts", s.instrument(s.get(s.handleVerdicts), clsVerdicts))
	s.mux.HandleFunc("/v2/verdicts", s.instrument(s.get(s.handleVerdictsV2), clsVerdicts))
	s.mux.HandleFunc("/healthz", s.instrument(s.get(s.handleHealthz), clsOps))
	s.mux.HandleFunc("/metrics", s.instrument(s.get(s.handleMetrics), clsOps))
	s.mux.HandleFunc("/debug/traces", s.instrument(s.get(s.handleDebugTraces), clsOps))
	s.mux.HandleFunc("/debug/slo", s.instrument(s.get(s.handleDebugSLO), clsOps))
	s.mux.HandleFunc("/debug/events", s.instrument(s.get(s.handleDebugEvents), clsOps))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}
