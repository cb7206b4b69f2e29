// Package serve exposes the detection → target-identification pipeline
// as a concurrent HTTP JSON service — the paper's system as production
// infrastructure rather than a batch experiment. One process loads a
// trained detector, the popularity ranking and the legitimate-web search
// index, then answers:
//
//	POST /v2/score         score one page → rich Verdict (label,
//	                       evidence, timings; per-request deadline)
//	POST /v2/target        run target identification only (Verdict-era
//	                       document with timings)
//	POST /v2/score/stream  NDJSON in, verdicts streamed back as they
//	                       complete (per-item deadlines, stops on
//	                       client disconnect)
//	POST /v1/score         frozen wire format; adapter over v2
//	POST /v1/score/batch   frozen wire format; adapter over v2
//	POST /v1/target        frozen wire format; adapter over v2
//	POST /v1/feed          enqueue URLs into the ingestion pipeline
//	GET  /v1/verdicts      query the durable verdict store (frozen
//	                       wire format; adapter over the v2 path)
//	GET  /v2/verdicts      cursor-paginated verdict queries with
//	                       target, model_version, source and
//	                       time-range filters (next_cursor resumes
//	                       the scan)
//	GET  /v2/models        list registry versions, champion, drift and
//	                       shadow-scoring gauges
//	POST /v2/models        trigger a background retrain from the store
//	POST /v2/models/promote  swap the champion (gated; force overrides)
//	GET  /healthz          liveness and model metadata
//	GET  /metrics          request counts, latency percentiles, cache,
//	                       feed, store and model-lifecycle stats
//
// The detector is resolved through a core.DetectorSource once per
// request: with a model registry configured, a champion/challenger
// promotion is picked up by the next request — one atomic load, no lock
// on the hot path, no restart, and in-flight requests finish on the
// model they started with. Every verdict and stored record is stamped
// with the model_version that produced it, and memoized scores are
// version-gated so a promoted model is never shadowed by its
// predecessor's entries.
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
// concurrent batches cannot oversubscribe the cores. The
// content-addressed stage memo (internal/coalesce), keyed by sha256
// over landing URL and content, absorbs repeated lookups of the same
// page — phishing campaigns funnel many lures to one landing page —
// without letting one client's submission define the verdict for a URL
// it does not own.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/drift"
	"knowphish/internal/feed"
	"knowphish/internal/feedsrc"
	"knowphish/internal/obs"
	"knowphish/internal/pool"
	"knowphish/internal/registry"
	"knowphish/internal/slo"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// Defaults for Config zero values.
const (
	// DefaultMaxBatch bounds the page count of one batch request and
	// the item count of one stream request.
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
	// lifetime. Required unless Detectors (or Registry) supplies models.
	Detector *core.Detector
	// Detectors optionally serves the detector per request — the model
	// lifecycle's hot-swap seam. When set, every request resolves the
	// current champion through it (one atomic load) and Detector is only
	// used as a fallback while the source has none.
	Detectors core.DetectorSource
	// Registry is the versioned model store behind GET/POST /v2/models
	// and /v2/models/promote (optional). When Detectors is nil the
	// registry also becomes the detector source.
	Registry *registry.Registry
	// Lifecycle is the drift-monitoring / retraining controller whose
	// status is exported at /v2/models and /metrics, and which gates
	// promotions (optional).
	Lifecycle *drift.Lifecycle
	// Identifier is the target identification system. Required.
	Identifier *target.Identifier
	// Workers bounds concurrent pipeline executions across the whole
	// server and caps the per-batch fan-out (0 → GOMAXPROCS).
	Workers int
	// MaxBatch bounds pages per batch or stream request
	// (0 → DefaultMaxBatch).
	MaxBatch int
	// MaxBodyBytes bounds request bodies (0 → DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// DefaultDeadline is the per-request scoring budget applied when a
	// request does not set its own deadline_ms (0 → no deadline). It
	// bounds pipeline work, not time spent queued for a worker slot.
	DefaultDeadline time.Duration
	// MemoEntries is the capacity of each per-stage memo table —
	// analysis, feature vector, detector score, target result — keyed
	// by content fingerprint (0 → coalesce.DefaultMemoEntries;
	// negative → no verdict reuse at all: every request computes every
	// stage, still fingerprinted for its ETag).
	MemoEntries int
	// Coalescer optionally injects a pre-built stage memo shared with
	// other subsystems (kpserve scores the feed drain through the same
	// one, so feed traffic warms the HTTP surface's memo tables and vice
	// versa). When nil, the server builds its own from MemoEntries.
	Coalescer *coalesce.Coalescer
	// DefaultExplain is the explain level applied when a v2 request
	// does not set one. v1 adapters never explain (their wire format
	// predates evidence).
	DefaultExplain core.ExplainLevel
	// ExplainTopN caps ExplainTop contributions when the request does
	// not set top_features (0 → core.DefaultTopFeatures).
	ExplainTopN int
	// Feed is the continuous ingestion scheduler backing POST /v1/feed
	// (optional; without it the endpoint answers 503).
	Feed *feed.Scheduler
	// FeedSources is the connector mux feeding the scheduler from
	// external URL feeds; wiring it here exports its per-source health
	// counters at /metrics (optional).
	FeedSources *feedsrc.Mux
	// Store is the durable verdict store backing GET /v1/verdicts and
	// GET /v2/verdicts (optional; without it both endpoints answer
	// 503). Any store.Backend engine works; see store.Open.
	Store store.Backend
	// Tracer records per-request pipeline traces served at
	// GET /debug/traces and summarized in /metrics (optional; nil
	// disables tracing — every instrumented path is nil-safe).
	Tracer *obs.Tracer
	// SLO is the error-budget engine: it turns completed requests into
	// SLI events, drives the ok/warn/page state at GET /debug/slo and
	// /healthz, and its shed level powers the adaptive admission
	// controller (optional; nil disables SLO tracking and shedding).
	// The caller owns ticking it (slo.Engine.Run).
	SLO *slo.Engine
	// Journal is the operational event ring served at GET /debug/events
	// (optional; without it the endpoint answers an empty document).
	Journal *obs.Journal
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
	// source yields the detector per request; identifier is fixed. Each
	// HTTP request resolves the detector exactly once (pipeline()), so a
	// champion hot-swap lands between requests, never inside one — a
	// batch is scored end to end by a single model.
	source          core.DetectorSource
	identifier      *target.Identifier
	registry        *registry.Registry
	lifecycle       *drift.Lifecycle
	workers         int
	maxBatch        int
	maxBody         int64
	defaultDeadline time.Duration
	defaultExplain  core.ExplainLevel
	explainTopN     int
	// coal is the content-addressed stage memo every scoring call goes
	// through — the only verdict reuse in the server.
	coal *coalesce.Coalescer
	// defaultOpts / defaultOptsSkip / v1Opts are the hoisted option
	// slices of the common request shapes, built once in New so the
	// hot paths never rebuild (and re-allocate) them per request.
	defaultOpts     []core.ScoreOption
	defaultOptsSkip []core.ScoreOption
	v1Opts          []core.ScoreOption
	feed            *feed.Scheduler
	feedSources     *feedsrc.Mux
	store           store.Backend
	metrics         *Metrics
	tracer          *obs.Tracer
	slo             *slo.Engine
	journal         *obs.Journal
	clock           func() time.Time
	logger          *slog.Logger
	// classes lists every endpoint class for metrics iteration; the
	// cls* fields are the per-class handles routes are wired with.
	classes     []*endpointClass
	clsScore    *endpointClass
	clsTarget   *endpointClass
	clsBatch    *endpointClass
	clsStream   *endpointClass
	clsFeed     *endpointClass
	clsVerdicts *endpointClass
	clsModels   *endpointClass
	clsOps      *endpointClass
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
	if cfg.Detectors == nil && cfg.Registry != nil {
		cfg.Detectors = cfg.Registry
	}
	if cfg.Detector == nil && cfg.Detectors == nil {
		return nil, errors.New("serve: Config needs a Detector or a Detectors source")
	}
	if cfg.Identifier == nil {
		return nil, errors.New("serve: Config.Identifier is required")
	}
	source := cfg.Detectors
	if source == nil {
		source = core.StaticSource(cfg.Detector)
	} else if cfg.Detector != nil {
		source = fallbackSource{primary: source, fallback: cfg.Detector}
	}
	s := &Server{
		source:          source,
		identifier:      cfg.Identifier,
		registry:        cfg.Registry,
		lifecycle:       cfg.Lifecycle,
		workers:         cfg.Workers,
		maxBatch:        cfg.MaxBatch,
		maxBody:         cfg.MaxBodyBytes,
		defaultDeadline: cfg.DefaultDeadline,
		defaultExplain:  cfg.DefaultExplain,
		explainTopN:     cfg.ExplainTopN,
		feed:            cfg.Feed,
		feedSources:     cfg.FeedSources,
		store:           cfg.Store,
		metrics:         newMetrics(),
		tracer:          cfg.Tracer,
		slo:             cfg.SLO,
		journal:         cfg.Journal,
		clock:           cfg.Clock,
		logger:          cfg.Logger,
	}
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.maxBatch <= 0 {
		s.maxBatch = DefaultMaxBatch
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	s.scoreSem = make(chan struct{}, s.workers)
	s.coal = cfg.Coalescer
	if s.coal == nil {
		s.coal = coalesce.New(coalesce.Config{MemoEntries: cfg.MemoEntries})
	}
	// Hoist the option slices of the common request shapes: an
	// option-free v2 request, the same with skip_target, and the v1
	// adapters. Built once, they keep per-request option assembly off
	// the allocator (pinned by TestHoistedOptionsAllocContract in
	// internal/core and TestCoreOptionsHoisted here).
	s.defaultOpts = []core.ScoreOption{
		core.WithDeadline(s.defaultDeadline),
		core.WithExplain(s.defaultExplain),
		core.WithTopFeatures(s.explainTopN),
	}
	s.defaultOptsSkip = append(append([]core.ScoreOption{}, s.defaultOpts...), core.WithoutTargetID())
	if s.defaultDeadline > 0 {
		s.v1Opts = []core.ScoreOption{core.WithDeadline(s.defaultDeadline)}
	}
	// Endpoint classes group routes for windowed latency, SLO
	// observation and admission control (see admission.go). The
	// cumulative latency histogram still tracks the scoring endpoints
	// only; healthz and metrics probes are counted but excluded so
	// liveness polling cannot dilute the percentiles operators alert
	// on. The stream endpoint is likewise excluded: a stream's duration
	// is the client's item count, not the server's latency.
	s.clsScore = s.newClass("score", prioInteractive, &s.metrics.latency, true)
	s.clsTarget = s.newClass("target", prioInteractive, &s.metrics.latency, true)
	s.clsBatch = s.newClass("batch", prioBatch, &s.metrics.latency, true)
	s.clsStream = s.newClass("stream", prioBatch, nil, false)
	s.clsFeed = s.newClass("feed", prioFeed, &s.metrics.latency, true)
	s.clsVerdicts = s.newClass("verdicts", prioBatch, &s.metrics.latency, true)
	s.clsModels = s.newClass("models", prioOps, nil, false)
	s.clsOps = s.newClass("ops", prioOps, nil, false)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v2/score", s.instrument(s.post(s.handleScoreV2), s.clsScore))
	s.mux.HandleFunc("/v2/score/batch", s.instrument(s.post(s.handleScoreBatchV2), s.clsBatch))
	s.mux.HandleFunc("/v2/target", s.instrument(s.post(s.handleTargetV2), s.clsTarget))
	s.mux.HandleFunc("/v2/score/stream", s.instrument(s.post(s.handleScoreStream), s.clsStream))
	s.mux.HandleFunc("/v1/score", s.instrument(s.post(s.handleScore), s.clsScore))
	s.mux.HandleFunc("/v1/score/batch", s.instrument(s.post(s.handleScoreBatch), s.clsBatch))
	s.mux.HandleFunc("/v1/target", s.instrument(s.post(s.handleTarget), s.clsTarget))
	s.mux.HandleFunc("/v2/models", s.instrument(s.handleModels, s.clsModels))
	s.mux.HandleFunc("/v2/models/promote", s.instrument(s.post(s.handlePromote), s.clsModels))
	s.mux.HandleFunc("/v1/feed", s.instrument(s.post(s.handleFeed), s.clsFeed))
	s.mux.HandleFunc("/v1/verdicts", s.instrument(s.get(s.handleVerdicts), s.clsVerdicts))
	s.mux.HandleFunc("/v2/verdicts", s.instrument(s.get(s.handleVerdictsV2), s.clsVerdicts))
	s.mux.HandleFunc("/healthz", s.instrument(s.get(s.handleHealthz), s.clsOps))
	s.mux.HandleFunc("/metrics", s.instrument(s.get(s.handleMetrics), s.clsOps))
	s.mux.HandleFunc("/debug/traces", s.instrument(s.get(s.handleDebugTraces), s.clsOps))
	s.mux.HandleFunc("/debug/slo", s.instrument(s.get(s.handleDebugSLO), s.clsOps))
	s.mux.HandleFunc("/debug/events", s.instrument(s.get(s.handleDebugEvents), s.clsOps))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// fallbackSource serves the primary source's detector, falling back to
// a fixed one while the primary has none (a registry still being
// bootstrapped).
type fallbackSource struct {
	primary  core.DetectorSource
	fallback *core.Detector
}

func (f fallbackSource) Current() *core.Detector {
	if d := f.primary.Current(); d != nil {
		return d
	}
	return f.fallback
}

// errNoModel is the 503 a scoring request gets from a hot-swappable
// source that has no champion yet.
var errNoModel = errors.New("no model available: the registry has no champion")

// pipeline resolves the detector for one request — exactly once, so a
// champion hot-swap lands between requests, never inside one.
func (s *Server) pipeline() (*core.Pipeline, error) {
	det := s.source.Current()
	if det == nil {
		return nil, errNoModel
	}
	return &core.Pipeline{Detector: det, Identifier: s.identifier}, nil
}

// Metrics returns a snapshot of the serving counters, including feed,
// store and model-lifecycle stats when those subsystems are wired in.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.metrics.Snapshot()
	if det := s.source.Current(); det != nil {
		snap.ModelVersion = det.Version()
	}
	if s.feed != nil {
		fs := s.feed.Stats()
		snap.Feed = &fs
	}
	if s.feedSources != nil {
		snap.FeedSources = s.feedSources.Stats()
	}
	if s.store != nil {
		ss := s.store.Stats()
		snap.Store = &ss
	}
	if s.lifecycle != nil {
		ls := s.lifecycle.Status()
		snap.Lifecycle = &ls
	}
	cs := s.coal.Snapshot()
	snap.Coalesce = &cs
	if s.tracer != nil {
		ts := s.tracer.Summary()
		snap.Tracing = &ts
	}
	snap.Endpoints = make(map[string]EndpointMetrics, len(s.classes))
	for _, c := range s.classes {
		em := EndpointMetrics{Priority: c.priority, Shed: c.shed.Load()}
		if c.window != nil {
			em.Windows = c.window.Summaries()
		}
		snap.Endpoints[c.name] = em
	}
	snap.Shed = ShedMetrics{
		Total:  s.metrics.shedTotal.Load(),
		Queued: s.metrics.shedQueued.Load(),
		Level:  s.slo.ShedLevel(),
	}
	if s.slo != nil {
		st := s.slo.Status()
		snap.SLO = &st
	}
	return snap
}

// ---------------------------------------------------------------------
// v1 request / response documents (frozen wire format).

// PageRequest describes one page to score: either a full snapshot, or
// raw HTML plus visit metadata (converted with webpage.FromHTML).
type PageRequest struct {
	Snapshot *webpage.Snapshot `json:"snapshot,omitempty"`

	HTML             string   `json:"html,omitempty"`
	StartingURL      string   `json:"starting_url,omitempty"`
	LandingURL       string   `json:"landing_url,omitempty"`
	RedirectionChain []string `json:"redirection_chain,omitempty"`
}

// snapshot resolves the request to a Snapshot.
func (p *PageRequest) snapshot() (*webpage.Snapshot, error) {
	if p.Snapshot != nil {
		if p.HTML != "" || p.StartingURL != "" || p.LandingURL != "" || len(p.RedirectionChain) > 0 {
			// The URLs would be silently ignored in favor of the
			// snapshot's embedded ones; reject rather than mislead.
			return nil, errors.New("snapshot requests must not also set html, starting_url, landing_url or redirection_chain")
		}
		if p.Snapshot.StartingURL == "" && p.Snapshot.LandingURL == "" {
			return nil, errors.New("snapshot missing starting_url and landing_url")
		}
		return p.Snapshot, nil
	}
	if p.HTML == "" {
		return nil, errors.New("missing snapshot or html")
	}
	start := p.StartingURL
	land := p.LandingURL
	if land == "" {
		land = start
	}
	if start == "" {
		start = land
	}
	if land == "" {
		return nil, errors.New("html requests need starting_url or landing_url")
	}
	snap := webpage.FromHTML(start, land, p.RedirectionChain, p.HTML)
	return &snap, nil
}

// ScoreResponse is the v1 verdict for one page.
type ScoreResponse struct {
	core.Outcome
	// LandingURL identifies the scored page.
	LandingURL string `json:"landing_url,omitempty"`
	// Cached reports whether the verdict was reused — every stage found
	// in the memo, or an identical page earlier in the same batch —
	// rather than freshly computed.
	Cached bool `json:"cached"`
}

// BatchRequest scores many pages in one call.
type BatchRequest struct {
	Pages []PageRequest `json:"pages"`
	// Workers optionally lowers the fan-out for this request; it is
	// capped by the server's worker limit.
	Workers int `json:"workers,omitempty"`
}

// BatchResponse carries per-page verdicts in request order.
type BatchResponse struct {
	Results   []ScoreResponse `json:"results"`
	Count     int             `json:"count"`
	ElapsedUS int64           `json:"elapsed_us"`
}

// TargetResponse is the v1 target identification result for one page.
type TargetResponse struct {
	LandingURL string        `json:"landing_url,omitempty"`
	Result     target.Result `json:"result"`
}

// FeedRequest enqueues URLs into the ingestion pipeline.
type FeedRequest struct {
	URLs []string `json:"urls"`
}

// FeedResult is the per-URL acceptance outcome.
type FeedResult struct {
	URL      string `json:"url"`
	Accepted bool   `json:"accepted"`
	// Reason explains a rejection: "queue_full", "duplicate",
	// "invalid_url" or "closed".
	Reason string `json:"reason,omitempty"`
}

// FeedResponse reports per-URL acceptance in request order. Partial
// acceptance is normal under backpressure; the response is still 200.
type FeedResponse struct {
	Results    []FeedResult `json:"results"`
	Accepted   int          `json:"accepted"`
	Rejected   int          `json:"rejected"`
	QueueDepth int          `json:"queue_depth"`
}

// VerdictsResponse carries verdict-store records, newest first. It is
// the frozen /v1/verdicts document: an empty result renders records as
// null, exactly as v1 always has.
type VerdictsResponse struct {
	Records []store.Record `json:"records"`
	Count   int            `json:"count"`
}

// VerdictsPageResponse is one /v2/verdicts page, newest first. When
// next_cursor is present the result was truncated at the limit; pass
// it back verbatim as ?cursor= to resume the scan exactly after the
// last record — the cursor stays valid across appends and compactions.
type VerdictsPageResponse struct {
	Records    []store.Record `json:"records"`
	Count      int            `json:"count"`
	NextCursor string         `json:"next_cursor,omitempty"`
}

// HealthResponse is the /healthz document.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Threshold     float64 `json:"threshold"`
	// ModelVersion is the serving champion's registry version ("" for a
	// detector loaded outside a registry).
	ModelVersion string `json:"model_version,omitempty"`
	// ModelHash is the champion artifact's sha256 (registry-backed
	// servers only) — together with ModelVersion it pins exactly which
	// model bytes answer this instance's traffic.
	ModelHash string `json:"model_hash,omitempty"`
	// GoVersion and VCSRevision identify the running build, read once
	// from debug.ReadBuildInfo (VCSRevision is empty when the binary
	// was built outside a VCS checkout, e.g. in tests).
	GoVersion    string `json:"go_version"`
	VCSRevision  string `json:"vcs_revision,omitempty"`
	Workers      int    `json:"workers"`
	CacheEnabled bool   `json:"cache_enabled"`
	FeedEnabled  bool   `json:"feed_enabled"`
	StoreEnabled bool   `json:"store_enabled"`
	// SLOState is the error-budget engine's worst objective state
	// ("ok", "warn" or "page"; absent without an SLO engine). A paging
	// server is still alive — liveness probes must not kill it — but
	// the field lets a smarter health check or operator see burn at a
	// glance without a second request.
	SLOState string `json:"slo_state,omitempty"`
	// ShedLevel is the active admission shed level (0 = admitting
	// everything; present only while shedding).
	ShedLevel int `json:"shed_level,omitempty"`
}

// buildGoVersion / buildVCSRevision are read once at startup; every
// /healthz response reuses them.
var buildGoVersion, buildVCSRevision = readBuildInfo()

func readBuildInfo() (goVersion, revision string) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return runtime.Version(), ""
	}
	goVersion = info.GoVersion
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return goVersion, revision
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---------------------------------------------------------------------
// The shared scoring path. v1 and v2 handlers are adapters over these.

// boundedCtx runs fn under the server-wide CPU-work bound, giving up
// without running it when ctx is done first — a disconnected client
// waiting for a slot must not consume one. Every CPU-heavy stage — HTML
// parsing, content hashing, pipeline scoring, target identification —
// goes through it, so a burst of concurrent requests cannot run more
// than Workers heavy executions at once. The deferred release survives
// a panic in fn.
//
// pri is the caller's shed priority (admission.go). After a slot is
// won, admission is re-checked: under overload, time queued for a slot
// is exactly what busts the latency SLO, so work admitted before the
// burn crossed the threshold is shed here instead of completing late
// and poisoning the accepted-request percentiles. The errShed return
// maps to a 503 via failCtx. pri is threaded as an explicit parameter
// — not a context value — to keep the warm path allocation-free.
func (s *Server) boundedCtx(ctx context.Context, pri int, fn func()) error {
	select {
	case s.scoreSem <- struct{}{}:
	case <-ctx.Done():
		return context.Cause(ctx)
	}
	defer func() { <-s.scoreSem }()
	if pri > 0 && pri <= s.slo.ShedLevel() {
		return errShed
	}
	fn()
	return nil
}

// scoreSnap scores one request through the stage memo — the single
// scoring path of every endpoint. It returns the verdict, whether it
// was a cache hit, and a context error (cancellation, deadline, shed)
// when scoring was cut short.
//
// A hit is a verdict for which no stage had to run: every result the
// request needs was in the memo under the serving model version. It
// carries no timings and no provenance. Anything partially computed is
// a miss with per-stage provenance in Verdict.Memo. cache_hits /
// cache_misses count exactly those two outcomes for default-mode
// requests; no-memo and refresh requests ask for recomputation, and
// explain requests bypass the memo (evidence is never memoized), so
// neither can hit and neither depresses the rate.
func (s *Server) scoreSnap(ctx context.Context, pri int, pipe *core.Pipeline, req core.ScoreRequest, cc coalesce.CacheControl) (core.Verdict, bool, error) {
	var (
		v    core.Verdict
		prov core.MemoProvenance
		err  error
	)
	if berr := s.boundedCtx(ctx, pri, func() { v, err = s.coal.Do(ctx, pipe, req, cc, &prov) }); berr != nil {
		err = berr
	}
	if err != nil {
		return core.Verdict{}, false, err
	}
	if prov.Hit() {
		s.metrics.cacheHits.Add(1)
		v.Timings = core.StageTimings{}
		return v, true, nil
	}
	s.recordOutcome(v.Outcome)
	if prov != (core.MemoProvenance{}) {
		if cc == coalesce.CacheDefault {
			s.metrics.cacheMiss.Add(1)
		}
		// Copied so that only a miss puts the provenance on the heap.
		p := prov
		v.Memo = &p
	}
	return v, false, nil
}

// failCtx converts a scoring context error into a response: an expired
// per-request deadline is a 504 the client can act on; queued work shed
// by the admission controller is a 503 with Retry-After; a cancelled
// context means the client is gone, so nothing is written and the
// cancellation is only counted.
func (s *Server) failCtx(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.fail(w, http.StatusGatewayTimeout, errors.New("scoring deadline exceeded"))
		return
	}
	if errors.Is(err, errShed) {
		s.shedQueued(w)
		return
	}
	s.metrics.cancelled.Add(1)
}

// ---------------------------------------------------------------------
// v1 handlers (adapters over the v2 core).

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req PageRequest
	if !s.decode(w, r, &req) {
		return
	}
	pipe, err := s.pipeline()
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	ctx := r.Context()
	// Snapshot resolution parses HTML; like every CPU-heavy stage it
	// runs under the server-wide bound.
	var snap *webpage.Snapshot
	if berr := s.boundedCtx(ctx, prioInteractive, func() { snap, err = req.snapshot() }); berr != nil {
		s.failCtx(w, berr)
		return
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	v, cached, err := s.scoreSnap(ctx, prioInteractive, pipe, core.NewScoreRequest(snap, s.v1Opts...), coalesce.CacheDefault)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	s.reply(w, http.StatusOK, ScoreResponse{Outcome: v.Outcome, LandingURL: snap.LandingURL, Cached: cached})
}

// beginBatch validates a batch's size and resolves what the whole
// request shares: the pipeline — one model scores a batch end to end, a
// hot-swap must not split it — and the fan-out width, the server's
// worker count capped by the client's workers field. It reports
// ok=false after writing the error response itself.
func (s *Server) beginBatch(w http.ResponseWriter, n, reqWorkers int) (pipe *core.Pipeline, workers int, ok bool) {
	if n == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty batch"))
		return nil, 0, false
	}
	if n > s.maxBatch {
		s.metrics.batchRejected.Add(1)
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds limit %d", n, s.maxBatch))
		return nil, 0, false
	}
	pipe, err := s.pipeline()
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err)
		return nil, 0, false
	}
	workers = s.workers
	if reqWorkers > 0 && reqWorkers < workers {
		workers = reqWorkers
	}
	return pipe, workers, true
}

// fanOut runs fn for every index on up to workers goroutines and
// returns what cut the batch short: ctx's own error, or the item errors
// joined. Neither batch wire format has a per-item error slot, so one
// failed item fails the request.
func fanOut(ctx context.Context, n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	if err := pool.ForEachIndexCtx(ctx, n, workers, func(i int) { errs[i] = fn(i) }); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// resolvePages resolves a batch's pages to snapshots. Resolution parses
// HTML, the dominant pre-scoring cost of a raw-HTML batch, so it fans
// out under the server-wide bound like scoring does; with keys non-nil
// each page is hashed into it in the same pass. It reports ok=false
// after writing the error response itself.
func (s *Server) resolvePages(ctx context.Context, w http.ResponseWriter, pages []PageRequest, workers int, keys []webpage.Key128) ([]*webpage.Snapshot, bool) {
	snaps := make([]*webpage.Snapshot, len(pages))
	bad := make([]error, len(pages))
	if err := fanOut(ctx, len(pages), workers, func(i int) error {
		return s.boundedCtx(ctx, prioBatch, func() {
			if snaps[i], bad[i] = pages[i].snapshot(); bad[i] == nil && keys != nil {
				keys[i] = webpage.ContentKey(snaps[i])
			}
		})
	}); err != nil {
		s.failCtx(w, err)
		return nil, false
	}
	for i, err := range bad {
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("page %d: %w", i, err))
			return nil, false
		}
	}
	return snaps, true
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	pipe, workers, ok := s.beginBatch(w, len(req.Pages), req.Workers)
	if !ok {
		return
	}
	ctx := r.Context()
	// Within-batch dedupe: campaigns funnel many lures to one landing
	// page, so identical pages (one content key) score once per batch
	// and the repeats answer as cache hits. It is the memo's reuse
	// applied before the first copy has been written back, and goes
	// with it: a server whose memo is disabled scores every page.
	var keys []webpage.Key128
	if s.coal.Enabled() {
		keys = make([]webpage.Key128, len(req.Pages))
	}
	snaps, ok := s.resolvePages(ctx, w, req.Pages, workers, keys)
	if !ok {
		return
	}
	// first[i] is the index of the first page with page i's content.
	first := make([]int, len(snaps))
	seen := make(map[webpage.Key128]int, len(keys))
	for i := range first {
		first[i] = i
	}
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			first[i] = j
		} else {
			seen[k] = i
		}
	}
	results := make([]ScoreResponse, len(snaps))
	if err := fanOut(ctx, len(snaps), workers, func(i int) error {
		if first[i] != i {
			return nil
		}
		req := core.NewScoreRequest(snaps[i], s.v1Opts...)
		if keys != nil {
			req = req.WithContentKey(keys[i])
		}
		v, cached, err := s.scoreSnap(ctx, prioBatch, pipe, req, coalesce.CacheDefault)
		results[i] = ScoreResponse{Outcome: v.Outcome, LandingURL: snaps[i].LandingURL, Cached: cached}
		return err
	}); err != nil {
		s.failCtx(w, err)
		return
	}
	for i, j := range first {
		if j != i {
			// Counted as a hit so cache_hit_rate matches the reuse the
			// client observes in the cached flags.
			s.metrics.cacheHits.Add(1)
			results[i] = results[j]
			results[i].Cached = true
		}
	}
	s.metrics.scoreBatch.Observe(time.Since(t0))
	s.reply(w, http.StatusOK, BatchResponse{
		Results:   results,
		Count:     len(results),
		ElapsedUS: time.Since(t0).Microseconds(),
	})
}

func (s *Server) handleTarget(w http.ResponseWriter, r *http.Request) {
	var req PageRequest
	if !s.decode(w, r, &req) {
		return
	}
	ctx := r.Context()
	// Resolution and identification are both pipeline-weight work; they
	// respect the same server-wide bound as scoring.
	var snap *webpage.Snapshot
	var err error
	if berr := s.boundedCtx(ctx, prioInteractive, func() { snap, err = req.snapshot() }); berr != nil {
		s.failCtx(w, berr)
		return
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.identify(ctx, prioInteractive, snap, s.defaultDeadline)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	s.reply(w, http.StatusOK, TargetResponse{LandingURL: snap.LandingURL, Result: res})
}

// identify runs target identification under the server-wide bound with
// an optional deadline, observing ctx between the analysis and
// identification stages.
func (s *Server) identify(ctx context.Context, pri int, snap *webpage.Snapshot, deadline time.Duration) (target.Result, error) {
	var res target.Result
	var err error
	if berr := s.boundedCtx(ctx, pri, func() {
		// The deadline budgets identification work, not time queued for
		// a worker slot, so it starts only once the slot is held — the
		// same semantics the score path gets from AnalyzeCtx applying
		// WithDeadline after boundedCtx.
		ictx := ctx
		if deadline > 0 {
			var cancel context.CancelFunc
			ictx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		a := webpage.Analyze(snap)
		if ictx.Err() != nil {
			err = context.Cause(ictx)
			return
		}
		res = s.identifier.Identify(a)
	}); berr != nil {
		return target.Result{}, berr
	}
	return res, err
}

// handleFeed enqueues URLs. Each URL is accepted or rejected
// independently; rejection reasons surface the scheduler's backpressure
// to the feed producer so it can slow down or retry later.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	if s.feed == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("feed ingestion is not configured on this server"))
		return
	}
	var req FeedRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.URLs) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty urls list"))
		return
	}
	if len(req.URLs) > s.maxBatch {
		s.metrics.batchRejected.Add(1)
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("feed of %d URLs exceeds limit %d", len(req.URLs), s.maxBatch))
		return
	}
	resp := FeedResponse{Results: make([]FeedResult, len(req.URLs))}
	for i, u := range req.URLs {
		res := FeedResult{URL: u}
		if err := s.feed.Enqueue(u); err != nil {
			res.Reason = feedReason(err)
			resp.Rejected++
		} else {
			res.Accepted = true
			resp.Accepted++
		}
		resp.Results[i] = res
	}
	resp.QueueDepth = s.feed.Stats().Depth
	s.reply(w, http.StatusOK, resp)
}

// feedReason maps scheduler rejections to stable wire strings.
func feedReason(err error) string {
	switch {
	case errors.Is(err, feed.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, feed.ErrDuplicate):
		return "duplicate"
	case errors.Is(err, feed.ErrInvalidURL):
		return "invalid_url"
	case errors.Is(err, feed.ErrClosed):
		return "closed"
	default:
		return err.Error()
	}
}

// parseVerdictQuery builds a store.Query from request parameters. The
// v1 and v2 verdict endpoints share the core filters (target, url,
// since, phish_only, limit); the v2 surface adds model_version,
// source, until and the pagination cursor.
func parseVerdictQuery(r *http.Request, v2 bool) (store.Query, error) {
	p := r.URL.Query()
	q := store.Query{
		Target: p.Get("target"),
		URL:    p.Get("url"),
		Limit:  DefaultVerdictsLimit,
	}
	if v := p.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return q, fmt.Errorf("invalid since %q: want RFC3339", v)
		}
		q.Since = t
	}
	if v := p.Get("phish_only"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return q, fmt.Errorf("invalid phish_only %q", v)
		}
		q.PhishOnly = b
	}
	if v := p.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > MaxVerdictsLimit {
			return q, fmt.Errorf("invalid limit %q: want 1..%d", v, MaxVerdictsLimit)
		}
		q.Limit = n
	}
	if !v2 {
		return q, nil
	}
	q.ModelVersion = p.Get("model_version")
	q.Source = p.Get("source")
	q.Cursor = p.Get("cursor")
	if v := p.Get("until"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return q, fmt.Errorf("invalid until %q: want RFC3339", v)
		}
		q.Until = t
	}
	return q, nil
}

// scanFail maps a store.Backend.Scan error onto the HTTP surface.
func (s *Server) scanFail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrBadCursor):
		s.fail(w, http.StatusBadRequest, err)
	case errors.Is(err, store.ErrClosed):
		s.fail(w, http.StatusServiceUnavailable, err)
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

// handleVerdicts queries the verdict store with the frozen v1 wire
// format — a thin adapter over the same Scan path /v2/verdicts uses,
// minus pagination:
//
//	GET /v1/verdicts?target=brand.com&since=2026-07-29T00:00:00Z
//	GET /v1/verdicts?url=http://lure.test/&phish_only=true&limit=50
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("verdict store is not configured on this server"))
		return
	}
	q, err := parseVerdictQuery(r, false)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	page, err := s.store.Scan(r.Context(), q)
	if err != nil {
		s.scanFail(w, err)
		return
	}
	recs := page.Records
	if len(recs) == 0 {
		recs = nil // v1 renders an empty result as null; pinned by goldens
	}
	s.reply(w, http.StatusOK, VerdictsResponse{Records: recs, Count: len(recs)})
}

// handleVerdictsV2 queries the verdict store with cursor pagination:
//
//	GET /v2/verdicts?target=brand.com&limit=50
//	GET /v2/verdicts?model_version=v0002&since=2026-07-01T00:00:00Z&until=2026-08-01T00:00:00Z
//	GET /v2/verdicts?cursor=<next_cursor from the previous page>
func (s *Server) handleVerdictsV2(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("verdict store is not configured on this server"))
		return
	}
	q, err := parseVerdictQuery(r, true)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	page, err := s.store.Scan(r.Context(), q)
	if err != nil {
		s.scanFail(w, err)
		return
	}
	recs := page.Records
	if recs == nil {
		recs = []store.Record{}
	}
	s.reply(w, http.StatusOK, VerdictsPageResponse{
		Records:    recs,
		Count:      len(recs),
		NextCursor: page.NextCursor,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		GoVersion:     buildGoVersion,
		VCSRevision:   buildVCSRevision,
		Workers:       s.workers,
		CacheEnabled:  s.coal.Enabled(),
		FeedEnabled:   s.feed != nil,
		StoreEnabled:  s.store != nil,
	}
	if det := s.source.Current(); det != nil {
		resp.Threshold = det.Threshold()
		resp.ModelVersion = det.Version()
		if s.registry != nil {
			if m, ok := s.registry.Champion(); ok {
				resp.ModelHash = m.Manifest.Hash
			}
		}
	} else {
		// Alive but unable to score: a registry-backed server waiting for
		// its first champion. Liveness probes should not kill it, but the
		// status string tells operators why scoring answers 503.
		resp.Status = "no_model"
	}
	if s.slo != nil {
		resp.SLOState = s.slo.State().String()
		resp.ShedLevel = s.slo.ShedLevel()
	}
	s.reply(w, http.StatusOK, resp)
}

// handleMetrics serves the metrics snapshot. JSON is the frozen default
// (pinned by goldens); ?format=prometheus switches to the text
// exposition format for scrapers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.reply(w, http.StatusOK, s.Metrics())
	case "prometheus":
		s.writePrometheus(w)
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or prometheus)", format))
	}
}

// handleDebugTraces serves the tracer's retained traces: the recent
// ring, the slow/error exemplar reservoir and the per-stage summaries.
// Without a tracer it answers an empty document rather than 404, so
// dashboards can poll unconditionally.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, s.tracer.Snapshot())
}

// handleDebugSLO serves the error-budget engine's full status: per-
// objective state, fast/slow burn rates, budget remaining and the
// active shed level. Without an engine it answers the empty "ok"
// document, so dashboards (kptop) can poll unconditionally.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, s.slo.Status())
}

// eventsResponse is the /debug/events document: the retained ring of
// operational events, newest first, plus the all-time count (total >
// len(events) means older events were evicted).
type eventsResponse struct {
	Events []obs.Event `json:"events"`
	Total  uint64      `json:"total"`
}

// handleDebugEvents serves the operational event journal: SLO
// transitions, shed-level changes and whatever else was wired to the
// journal (drift flags, promotions, compactions). Without a journal it
// answers an empty document rather than 404.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	evs := s.journal.Events()
	if evs == nil {
		evs = []obs.Event{}
	}
	s.reply(w, http.StatusOK, eventsResponse{Events: evs, Total: s.journal.Total()})
}

// ---------------------------------------------------------------------
// Plumbing.

func (s *Server) recordOutcome(out core.Outcome) {
	s.metrics.scored.Add(1)
	if out.FinalPhish {
		s.metrics.phish.Add(1)
	}
}

func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Nothing was written yet, so the failure can still be reported
		// as a real error status (pre-pool encoding failed after the
		// header and could only be counted).
		s.metrics.errors.Add(1)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Headers are gone; nothing to do but count it.
		s.metrics.errors.Add(1)
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.metrics.errors.Add(1)
	s.reply(w, status, errorResponse{Error: err.Error()})
}

// statusRecorder captures the response status so instrumentation can
// tell successful work apart from cheap rejections. The shed mark set
// by writeShed keeps deliberate load-shedding 503s out of SLO
// observation — a controller whose own rejections burned the
// availability budget would never recover.
type statusRecorder struct {
	http.ResponseWriter
	status int
	shed   bool
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the underlying writer so the streaming endpoint's
// per-item flush survives the instrumentation wrapper — embedding only
// the ResponseWriter interface would otherwise hide the real writer's
// Flusher from type assertions.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// slowLogSample is the slow-request log sampling interval: the first
// slow request and every slowLogSample-th after it are logged.
const slowLogSample = 8

// instrument wraps a handler with request counting and, when the class
// carries a histogram, latency capture into it. Only successful
// responses are observed: microsecond-cheap 4xx rejections would
// otherwise drag the percentiles operators alert on toward zero.
//
// It is also the admission boundary: a request whose class fails the
// shed check is rejected here with a 503 before any work, and the SLO
// seam: completed requests (except shed ones and vanished clients)
// feed the error-budget engine under the class's endpoint name.
//
// It is also the tracing seam: with a tracer configured, every request
// gets a trace attached to its context (rooted in the caller's
// traceparent header when one is sent), the response echoes the
// server's traceparent, 5xx responses mark the trace failed, and
// requests past the slow threshold are logged — sampled, with their
// trace id, so an operator can jump from a log line straight to the
// retained trace in /debug/traces.
func (s *Server) instrument(h http.HandlerFunc, cls *endpointClass) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.metrics.requests.Add(1)
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if !s.admit(cls) {
			s.shedClass(rec, cls)
			return
		}
		ctx, tr := s.tracer.StartRequest(r.Context(), r.URL.Path, r.Header.Get("traceparent"))
		if tr != nil {
			rec.Header().Set("Traceparent", tr.Traceparent())
			r = r.WithContext(ctx)
		}
		h(rec, r)
		dur := time.Since(t0)
		if tr != nil {
			if rec.status >= 500 {
				tr.SetError()
			}
			// The slow log reads the trace before Finish returns it to
			// the pool.
			if slow := s.tracer.SlowThreshold(); slow > 0 && dur >= slow {
				if n := s.slowSeen.Add(1); n == 1 || n%slowLogSample == 0 {
					s.logger.Warn("slow request",
						"path", r.URL.Path,
						"status", rec.status,
						"dur_ms", dur.Milliseconds(),
						"trace_id", tr.TraceID(),
						"sampled_1_in", slowLogSample)
				}
			}
			s.tracer.Finish(tr)
		}
		// Cancelled requests wrote nothing (status stays 200) but their
		// elapsed time is time-until-the-server-noticed, not a service
		// latency — exclude them like error responses.
		if rec.status < 400 && r.Context().Err() == nil {
			if cls.hist != nil {
				cls.hist.Observe(dur)
			}
			cls.window.Observe(dur)
		}
		// Feed the error-budget engine: every completed response is an
		// SLI event — good, or bad (5xx, or over the latency target; the
		// engine decides). Shed 503s and vanished clients are excluded;
		// see writeShed for why sheds must not burn the budget.
		if !rec.shed && r.Context().Err() == nil {
			s.slo.Observe(cls.name, dur, rec.status >= 500)
		}
	}
}

// post restricts a handler to POST requests.
func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return s.allowMethod(http.MethodPost, h)
}

// get restricts a handler to GET (and HEAD) requests.
func (s *Server) get(h http.HandlerFunc) http.HandlerFunc {
	return s.allowMethod(http.MethodGet, h)
}

func (s *Server) allowMethod(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			s.fail(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
			return
		}
		h(w, r)
	}
}
