// Package knowphish is a Go reproduction of "Know Your Phish: Novel
// Techniques for Detecting Phishing Sites and their Targets" (Marchal,
// Saari, Singh, Asokan — ICDCS 2016).
//
// It exposes the paper's two systems behind a small API:
//
//   - a phishing Detector: 212 hand-designed, language-independent
//     features over the data sources a browser observes, classified by
//     gradient-boosted trees with a 0.7 discrimination threshold;
//   - a TargetIdentifier that extracts keyterms from a page and uses a
//     search engine to either confirm the page as legitimate or name the
//     brand a phishing page is mimicking;
//   - a Pipeline chaining both, using target identification to discard
//     detector false positives.
//
// The heavy lifting lives in internal packages; this package re-exports
// the stable surface a downstream user needs. Experiments against the
// paper's tables and figures are driven by cmd/kpexperiments; see
// DESIGN.md and EXPERIMENTS.md.
package knowphish

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/drift"
	"knowphish/internal/features"
	"knowphish/internal/feed"
	"knowphish/internal/feedsrc"
	"knowphish/internal/loadgen"
	"knowphish/internal/ml"
	"knowphish/internal/obs"
	"knowphish/internal/ocr"
	"knowphish/internal/ranking"
	"knowphish/internal/registry"
	"knowphish/internal/search"
	"knowphish/internal/serve"
	"knowphish/internal/slo"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// Re-exported core types. A Snapshot is what a scraper records when
// visiting one page (the paper's Section II-C data sources); everything
// in the library consumes Snapshots.
type (
	// Snapshot is one recorded page visit.
	Snapshot = webpage.Snapshot
	// Detector is the trained phishing classifier (Section IV).
	Detector = core.Detector
	// TrainConfig tunes detector training.
	TrainConfig = core.TrainConfig
	// Pipeline chains detection with target identification (Section
	// III-C).
	Pipeline = core.Pipeline
	// Outcome is a legacy (v1) pipeline verdict, embedded in Verdict.
	Outcome = core.Outcome
	// TargetIdentifier names the brand a phish mimics (Section V).
	TargetIdentifier = target.Identifier
	// TargetResult is a target identification outcome.
	TargetResult = target.Result
	// SearchEngine is the legitimate-web index used by target
	// identification.
	SearchEngine = search.Engine
	// RankList is the offline popularity list (feature 9 of Table IV).
	RankList = ranking.List
	// FeatureSet selects feature groups f1..f5.
	FeatureSet = features.Set
	// GBMConfig tunes the gradient-boosting classifier.
	GBMConfig = ml.GBMConfig
)

// Target identification verdicts.
const (
	VerdictLegitimate = target.VerdictLegitimate
	VerdictPhish      = target.VerdictPhish
	VerdictSuspicious = target.VerdictSuspicious
)

// DefaultThreshold is the paper's discrimination threshold (0.7).
const DefaultThreshold = core.DefaultThreshold

// ---------------------------------------------------------------------
// The v2 scoring API: request/verdict pairs with cancellation end to
// end. Build a ScoreRequest with NewScoreRequest plus functional
// options, then call Detector.ScoreCtx or Pipeline.AnalyzeCtx (or the
// batch/stream variants AnalyzeBatchCtx / AnalyzeStream). The verdict
// carries a label, per-stage timings and — when requested — the exact
// per-feature log-odds evidence behind the score. The context-free
// Score/Analyze methods remain as deprecated wrappers.

type (
	// ScoreRequest describes one page plus how to score it.
	ScoreRequest = core.ScoreRequest
	// ScoreOption is a functional option of NewScoreRequest.
	ScoreOption = core.ScoreOption
	// Verdict is the rich scoring result (label, evidence, timings).
	Verdict = core.Verdict
	// Explanation is a verdict's per-feature evidence.
	Explanation = core.Explanation
	// FeatureContribution is one feature's share of a verdict.
	FeatureContribution = features.Contribution
	// StageTimings reports where a verdict's latency went.
	StageTimings = core.StageTimings
	// ExplainLevel selects how much evidence a verdict carries.
	ExplainLevel = core.ExplainLevel
	// StreamResult is one completed item of Pipeline.AnalyzeStream.
	StreamResult = core.StreamResult
)

// Explain levels.
const (
	ExplainNone = core.ExplainNone
	ExplainTop  = core.ExplainTop
	ExplainFull = core.ExplainFull
)

// Verdict labels.
const (
	LabelPhishing   = core.LabelPhishing
	LabelLegitimate = core.LabelLegitimate
)

// NewScoreRequest builds a v2 scoring request for one snapshot.
func NewScoreRequest(snap *Snapshot, opts ...ScoreOption) ScoreRequest {
	return core.NewScoreRequest(snap, opts...)
}

// WithDeadline bounds the scoring work per request.
func WithDeadline(d time.Duration) ScoreOption { return core.WithDeadline(d) }

// WithExplain attaches per-feature evidence to the verdict.
func WithExplain(level ExplainLevel) ScoreOption { return core.WithExplain(level) }

// WithTopFeatures caps an ExplainTop explanation at n contributions.
func WithTopFeatures(n int) ScoreOption { return core.WithTopFeatures(n) }

// WithoutTargetID skips target identification on detector positives.
func WithoutTargetID() ScoreOption { return core.WithoutTargetID() }

// WithFeatureSet restricts scoring to the given feature groups
// (inference-time ablation).
func WithFeatureSet(s FeatureSet) ScoreOption { return core.WithFeatureSet(s) }

// ParseExplainLevel parses "none", "top" or "full".
func ParseExplainLevel(s string) (ExplainLevel, error) { return core.ParseExplainLevel(s) }

// Feature groups of Table III.
const (
	F1      = features.F1
	F2      = features.F2
	F3      = features.F3
	F4      = features.F4
	F5      = features.F5
	AllSets = features.All
)

// Serving types: the HTTP scoring service of internal/serve. A Server
// answers /v1/score, /v1/score/batch and /v1/target, fanning work out
// over the same worker-pool primitive (internal/pool) that backs
// ExtractBatch and the library batch methods, with a sharded verdict
// cache and /healthz + /metrics introspection.
type (
	// Server is the HTTP scoring service (an http.Handler).
	Server = serve.Server
	// ServerConfig assembles a Server.
	ServerConfig = serve.Config
	// PageRequest is one page to score (snapshot or raw HTML).
	PageRequest = serve.PageRequest
	// BatchRequest scores many pages in one call.
	BatchRequest = serve.BatchRequest
	// ScoreResponse is the verdict for one page.
	ScoreResponse = serve.ScoreResponse
	// BatchResponse carries per-page verdicts in request order.
	BatchResponse = serve.BatchResponse
	// TargetResponse is the /v1/target document.
	TargetResponse = serve.TargetResponse
	// HealthResponse is the /healthz document.
	HealthResponse = serve.HealthResponse
	// MetricsSnapshot is the /metrics document.
	MetricsSnapshot = serve.MetricsSnapshot
	// FeedRequest enqueues URLs via POST /v1/feed.
	FeedRequest = serve.FeedRequest
	// FeedResponse reports per-URL acceptance.
	FeedResponse = serve.FeedResponse
	// VerdictsResponse is the GET /v1/verdicts document.
	VerdictsResponse = serve.VerdictsResponse

	// ScoreOptions are the per-request knobs of the v2 HTTP surface.
	ScoreOptions = serve.ScoreOptions
	// V2ScoreRequest is the POST /v2/score (and stream item) document.
	V2ScoreRequest = serve.V2ScoreRequest
	// V2ScoreResponse is the rich verdict document of /v2/score.
	V2ScoreResponse = serve.V2ScoreResponse
	// V2TargetResponse is the POST /v2/target document.
	V2TargetResponse = serve.V2TargetResponse
	// V2StreamResult is one NDJSON line of a /v2/score/stream response.
	V2StreamResult = serve.V2StreamResult
)

// NewServer builds the HTTP scoring service over a trained detector and
// a target identifier.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// Feed-ingestion types: the continuous pipeline of internal/feed (URL
// feeds → bounded queue → per-domain-rate-limited crawl → score →
// persist) and the durable verdict store of internal/store backing it.
type (
	// FeedScheduler is the continuous ingestion pipeline.
	FeedScheduler = feed.Scheduler
	// FeedConfig assembles a FeedScheduler.
	FeedConfig = feed.Config
	// FeedStats are the scheduler counters (queue depth, throughput,
	// retries).
	FeedStats = feed.Stats
	// Fetcher resolves URLs to pages; the synthetic World satisfies it.
	Fetcher = crawl.Fetcher
	// Page is one fetchable resource of the (synthetic) web.
	Page = webgen.Page

	// VerdictBackend is the pluggable storage engine behind the verdict
	// log: segmented write-ahead log (default), legacy single-file
	// JSONL, or in-memory. See OpenVerdictStore.
	VerdictBackend = store.Backend
	// VerdictStore is the legacy single-file JSONL verdict log.
	//
	// Deprecated: use VerdictBackend; OpenVerdictStore returns one.
	VerdictStore = store.Store
	// StoreConfig assembles a VerdictBackend (Backend selects the
	// engine; Path is a directory for the segmented engine).
	StoreConfig = store.Config
	// VerdictRecord is one persisted verdict.
	VerdictRecord = store.Record
	// VerdictQuery filters VerdictBackend.Scan (and the deprecated
	// VerdictStore.Select).
	VerdictQuery = store.Query
	// VerdictPage is one cursor-paginated VerdictBackend.Scan result.
	VerdictPage = store.ScanPage
	// StoreStats are the store counters (records, segments,
	// compactions, snapshot state).
	StoreStats = store.Stats
)

// Storage engine names for StoreConfig.Backend.
const (
	BackendSegmented = store.BackendSegmented
	BackendLegacy    = store.BackendLegacy
	BackendMemory    = store.BackendMemory
)

// Feed rejection reasons returned by FeedScheduler.Enqueue.
var (
	ErrFeedQueueFull  = feed.ErrQueueFull
	ErrFeedDuplicate  = feed.ErrDuplicate
	ErrFeedInvalidURL = feed.ErrInvalidURL
	ErrFeedClosed     = feed.ErrClosed
)

// NewFeed validates the configuration and starts the ingestion worker
// loop.
func NewFeed(cfg FeedConfig) (*FeedScheduler, error) { return feed.New(cfg) }

// OpenVerdictStore opens (creating if necessary) a verdict store with
// the engine named by cfg.Backend — the segmented write-ahead log by
// default. A legacy JSONL log found at cfg.Path is migrated into
// segments on first open.
func OpenVerdictStore(cfg StoreConfig) (VerdictBackend, error) { return store.Open(cfg) }

// OpenStore opens the legacy single-file JSONL verdict store and
// replays its log into memory.
//
// Deprecated: use OpenVerdictStore, which defaults to the segmented
// engine and migrates legacy logs in place.
func OpenStore(cfg StoreConfig) (*VerdictStore, error) { return store.OpenLegacy(cfg) }

// Feed-connector types: the external URL-feed sources of
// internal/feedsrc (PhishTank/OpenPhish-style JSON feeds, ranked benign
// CSV lists, CT-log-style NDJSON streams) and the Mux that polls them
// with resumable cursors, per-source rate shares and cross-source
// dedupe, fanning accepted URLs into the FeedScheduler with provenance
// carried to VerdictRecord.Source.
type (
	// FeedSource is one pollable external URL feed.
	FeedSource = feedsrc.Source
	// FeedItem is one URL a source produced.
	FeedItem = feedsrc.Item
	// FeedMux drives a set of FeedSources into the scheduler.
	FeedMux = feedsrc.Mux
	// FeedMuxConfig assembles a FeedMux.
	FeedMuxConfig = feedsrc.MuxConfig
	// FeedSourceStats is one connector's health snapshot (cursor, lag,
	// fetch/error/reject counters), exported at /metrics.
	FeedSourceStats = feedsrc.SourceStats
	// FeedRejectStats breaks a source's non-enqueued URLs down by
	// reason.
	FeedRejectStats = feedsrc.RejectStats
)

// NewFeedMux validates the configuration, restores persisted cursors
// and starts one polling goroutine per source.
func NewFeedMux(cfg FeedMuxConfig) (*FeedMux, error) { return feedsrc.NewMux(cfg) }

// NewJSONFeedSource polls a PhishTank/OpenPhish-style JSON feed,
// resuming past the highest entry id seen.
func NewJSONFeedSource(name, url string, client *http.Client) FeedSource {
	return feedsrc.NewJSONFeed(name, url, client)
}

// NewRankedCSVSource walks a Tranco-style "rank,domain" CSV benign
// list in batches, resuming at the last consumed row.
func NewRankedCSVSource(name, url string, client *http.Client, maxBatch int) FeedSource {
	return feedsrc.NewRankedCSV(name, url, client, maxBatch)
}

// NewNDJSONStreamSource tails a CT-log-style NDJSON stream with HTTP
// range requests, resuming at the byte offset past the last complete
// line.
func NewNDJSONStreamSource(name, url string, client *http.Client) FeedSource {
	return feedsrc.NewNDJSONStream(name, url, client)
}

// Load-generation types: the closed/open-loop harness of
// internal/loadgen behind cmd/kpload, replaying a URL corpus against a
// running server's POST /v1/feed and measuring sustained throughput,
// latency percentiles and queue depth.
type (
	// LoadConfig describes one load run.
	LoadConfig = loadgen.Config
	// LoadReport is the outcome (the LOAD_PR.json document).
	LoadReport = loadgen.Report
)

// RunLoad executes one load test against a running server.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) { return loadgen.Run(ctx, cfg) }

// ---------------------------------------------------------------------
// The model lifecycle subsystem: a versioned, content-hashed model
// registry serving the current champion behind an atomic pointer
// (zero-downtime hot swap), drift monitors over live traffic
// (score-distribution PSI, per-feature population drift, phish-rate
// shift), and a Lifecycle controller that closes the loop — background
// retrain from store-persisted verdicts, challenger shadow-scoring, and
// a gated champion promotion.

type (
	// ModelRegistry is the versioned on-disk model store; it implements
	// DetectorSource, serving the champion lock-free.
	ModelRegistry = registry.Registry
	// ModelManifest describes one registered model version (content
	// hash, feature-set hash, training stats, created-at).
	ModelManifest = registry.Manifest
	// RegistryModel pairs a loaded detector with its manifest.
	RegistryModel = registry.Model
	// TrainingStats records a model's training provenance.
	TrainingStats = registry.TrainingStats

	// DetectorSource yields the detector scoring paths use right now —
	// the hot-swap seam of the serving and ingestion layers.
	DetectorSource = core.DetectorSource
	// SwappableSource is a DetectorSource swapped with one atomic store.
	SwappableSource = core.SwappableSource

	// DriftMonitor watches live traffic for distribution shift.
	DriftMonitor = drift.Monitor
	// DriftConfig tunes the drift monitor's windows and thresholds.
	DriftConfig = drift.Config
	// DriftStatus carries the drift gauges (PSI values, rate shift).
	DriftStatus = drift.Status
	// Lifecycle is the champion/challenger controller: observe →
	// retrain → shadow → gate → promote.
	Lifecycle = drift.Lifecycle
	// LifecycleConfig assembles a Lifecycle.
	LifecycleConfig = drift.LifecycleConfig
	// LifecycleStatus is the lifecycle introspection document.
	LifecycleStatus = drift.LifecycleStatus
	// PromotionDecision is a promotion-gate ruling.
	PromotionDecision = drift.Decision
	// ModelEvaluation compares champion and challenger held-out metrics.
	ModelEvaluation = drift.Evaluation

	// ModelsResponse is the GET /v2/models document.
	ModelsResponse = serve.ModelsResponse
	// PromoteRequest is the POST /v2/models/promote document.
	PromoteRequest = serve.PromoteRequest
	// PromoteResponse reports a completed promotion.
	PromoteResponse = serve.PromoteResponse
)

// Lifecycle errors.
var (
	ErrNoChampion     = registry.ErrNoChampion
	ErrRetrainRunning = drift.ErrRetrainRunning
	ErrGateRefused    = drift.ErrGateRefused
)

// OpenModelRegistry opens (creating if necessary) a versioned model
// registry and loads its champion, if one was promoted. rank is wired
// into loaded detectors (it is not embedded in artifacts).
func OpenModelRegistry(dir string, rank *RankList) (*ModelRegistry, error) {
	return registry.Open(dir, rank)
}

// NewDriftMonitor builds a sliding-window drift monitor.
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor { return drift.NewMonitor(cfg) }

// NewLifecycle builds the champion/challenger lifecycle controller.
func NewLifecycle(cfg LifecycleConfig) (*Lifecycle, error) { return drift.NewLifecycle(cfg) }

// StaticSource wraps a fixed detector as a DetectorSource.
func StaticSource(d *Detector) DetectorSource { return core.StaticSource(d) }

// NewSwappableSource returns a source initially serving d (may be nil).
func NewSwappableSource(d *Detector) *SwappableSource { return core.NewSwappableSource(d) }

// FeatureSetHash fingerprints the feature schema of a feature-group
// selection; models sharing it are hot-swap compatible.
func FeatureSetHash(set FeatureSet) string { return registry.FeatureSetHash(set) }

// WithVectorCapture retains the extracted feature vector on the verdict
// (drift monitors read it); never serialized.
func WithVectorCapture() ScoreOption { return core.WithVectorCapture() }

// PageAnalysis is the derived, feature-ready view of a Snapshot (URLs
// parsed, links classified, term distributions built).
type PageAnalysis = webpage.Analysis

// AnalyzePage computes a snapshot's analysis once; pass it to repeated
// scoring requests via WithAnalysis to skip the analysis stage.
func AnalyzePage(s *Snapshot) *PageAnalysis { return webpage.Analyze(s) }

// WithAnalysis supplies a precomputed page analysis, skipping the
// analysis stage — the cached-page fast path, which scores without any
// heap allocation.
func WithAnalysis(a *PageAnalysis) ScoreOption { return core.WithAnalysis(a) }

// Fingerprint hashes a snapshot's landing URL and content fields into
// the page identity (32 hex digits of sha256) that keys the stage memo,
// stems the v2 ETag and decides which stored verdict supersedes which.
func Fingerprint(s *Snapshot) string { return webpage.Fingerprint(s) }

// LoadSearchEngine restores an index saved with SearchEngine.Save (kpgen
// writes one as index.json).
func LoadSearchEngine(r io.Reader) (*SearchEngine, error) { return search.Load(r) }

// SnapshotFromHTML builds a Snapshot from raw page HTML plus visit
// metadata, resolving relative links against the landing URL. Use it to
// feed real scraped pages into the detector.
func SnapshotFromHTML(startingURL, landingURL string, redirectionChain []string, html string) Snapshot {
	return webpage.FromHTML(startingURL, landingURL, redirectionChain, html)
}

// Train fits a detector on labeled snapshots (label 1 = phishing).
func Train(snaps []*Snapshot, labels []int, cfg TrainConfig) (*Detector, error) {
	return core.Train(snaps, labels, cfg)
}

// LoadDetector restores a detector saved with Detector.Save. rank may be
// nil (all domains treated as unranked).
func LoadDetector(r io.Reader, rank *RankList) (*Detector, error) {
	return core.Load(r, rank)
}

// NewTargetIdentifier builds a target identifier over a search engine
// with the paper's defaults (top-5 keyterms, OCR fallback enabled).
func NewTargetIdentifier(engine *SearchEngine) *TargetIdentifier {
	return target.New(engine)
}

// NewSearchEngine returns an empty legitimate-web index.
func NewSearchEngine() *SearchEngine { return search.NewEngine() }

// NewOCR returns the default simulated OCR recognizer.
func NewOCR() *ocr.Recognizer { return ocr.Default() }

// ReadRankList parses a popularity list in Alexa CSV format
// ("rank,domain" per line).
func ReadRankList(r io.Reader) (*RankList, error) { return ranking.Read(r) }

// Synthetic-world helpers: the evaluation substrate of this reproduction.
// They let examples and downstream experiments generate realistic
// labeled corpora without live crawling.
type (
	// World is the synthetic web (brands, hosting, languages).
	World = webgen.World
	// WorldConfig tunes world generation.
	WorldConfig = webgen.Config
	// Corpus bundles the Table V evaluation campaigns.
	Corpus = dataset.Corpus
	// CorpusConfig tunes corpus generation.
	CorpusConfig = dataset.Config
)

// NewWorld generates a synthetic web.
func NewWorld(cfg WorldConfig) *World { return webgen.New(cfg) }

// BuildCorpus generates the Table V evaluation campaigns over a fresh
// world.
func BuildCorpus(cfg CorpusConfig) (*Corpus, error) { return dataset.Build(cfg) }

// VisitSite crawls a generated site into a Snapshot.
func VisitSite(w *World, site *webgen.Site) (*Snapshot, error) {
	return crawl.VisitSite(w, site)
}

// ---------------------------------------------------------------------
// Observability: the internal/obs telemetry layer. A Tracer records
// per-stage request traces (crawl → analyze → extract → score →
// identify → persist) into a ring of recent traces plus a slow/error
// exemplar reservoir; wire one into ServerConfig.Tracer and
// FeedConfig.Tracer, and pass a structured Logger alongside. Both are
// nil-safe: an unconfigured pipeline pays no tracing or logging cost.

type (
	// Tracer records request traces and per-stage latency histograms.
	Tracer = obs.Tracer
	// TracerConfig tunes the trace ring, exemplar reservoir and slow
	// threshold.
	TracerConfig = obs.Config
	// TraceStage names one pipeline stage of a trace.
	TraceStage = obs.Stage
	// RequestTrace is one in-flight trace, carried on the context.
	RequestTrace = obs.Trace
	// TraceSummary aggregates tracer counters and per-stage latency for
	// /metrics.
	TraceSummary = obs.Summary
	// LatencyHist is the lock-free exponential-bucket latency histogram
	// shared by the server and the tracer.
	LatencyHist = obs.Hist
)

// Trace stages, in pipeline order.
const (
	StageCrawl       = obs.StageCrawl
	StageAnalyze     = obs.StageAnalyze
	StageExtract     = obs.StageExtract
	StageScore       = obs.StageScore
	StageIdentify    = obs.StageIdentify
	StageExplain     = obs.StageExplain
	StageStoreAppend = obs.StageStoreAppend
)

// NewTracer builds a request tracer.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// NewLogger builds a structured logger writing to w. level is "debug",
// "info", "warn" or "error"; format is "text" or "json".
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	return obs.NewLogger(w, level, format)
}

// NopLogger returns a logger that discards everything — the default
// wherever a config Logger field is nil.
func NopLogger() *slog.Logger { return obs.NopLogger() }

// TraceFromContext returns the request trace carried by ctx, or nil.
// The returned trace's methods are nil-safe, so callers never branch.
func TraceFromContext(ctx context.Context) *RequestTrace { return obs.TraceFrom(ctx) }

// ---------------------------------------------------------------------
// SLOs and overload control: the internal/slo error-budget engine plus
// the windowed-telemetry primitives it runs on. Parse "-slo"-style
// specs with ParseSLOs, build an SLOEngine, wire it into
// ServerConfig.SLO and start SLOEngine.Run; the server then answers
// GET /debug/slo, reflects the state in /healthz and /metrics, and
// sheds low-priority request classes under sustained budget burn. An
// EventJournal (ServerConfig.Journal) records the transitions at
// GET /debug/events.

type (
	// SLOObjective is one parsed objective (latency quantile target or
	// availability floor) on an endpoint class.
	SLOObjective = slo.Objective
	// SLOConfig assembles an SLOEngine (windows, burn thresholds,
	// hysteresis).
	SLOConfig = slo.Config
	// SLOEngine evaluates objectives as multi-window multi-burn-rate
	// error budgets and drives the admission controller's shed level.
	SLOEngine = slo.Engine
	// SLOState is an objective's (or the engine's worst) alert state.
	SLOState = slo.State
	// SLOStatus is the GET /debug/slo document.
	SLOStatus = slo.Status
	// SLOObjectiveStatus is one objective's entry in SLOStatus.
	SLOObjectiveStatus = slo.ObjectiveStatus

	// EventJournal is the fixed-size operational event ring behind
	// GET /debug/events.
	EventJournal = obs.Journal
	// JournalEvent is one recorded operational event.
	JournalEvent = obs.Event

	// WindowedLatencyHist is a time-bucketed ring of LatencyHists
	// answering "what is p99 right now" over rolling windows.
	WindowedLatencyHist = obs.WindowedHist
	// WindowSummary is one rolling window's rendered percentiles.
	WindowSummary = obs.WindowSummary
)

// SLO alert states.
const (
	SLOStateOK   = slo.StateOK
	SLOStateWarn = slo.StateWarn
	SLOStatePage = slo.StatePage
)

// ParseSLOs parses "-slo"-style objective specs, e.g.
// "score:p99<250ms,avail>99.9".
func ParseSLOs(specs []string) ([]SLOObjective, error) { return slo.ParseObjectives(specs) }

// NewSLOEngine builds an error-budget engine; nil (inert) when cfg has
// no objectives. Start it with SLOEngine.Run.
func NewSLOEngine(cfg SLOConfig) *SLOEngine { return slo.New(cfg) }

// NewEventJournal builds a fixed-size operational event journal
// (size <= 0 selects the default capacity).
func NewEventJournal(size int) *EventJournal { return obs.NewJournal(size) }

// NewWindowedLatencyHist builds a windowed latency histogram; clock nil
// means time.Now.
func NewWindowedLatencyHist(clock func() time.Time) *WindowedLatencyHist {
	return obs.NewWindowedHist(clock)
}
