// Package knowphish is a Go reproduction of "Know Your Phish: Novel
// Techniques for Detecting Phishing Sites and their Targets" (Marchal,
// Saari, Singh, Asokan — ICDCS 2016).
//
// It exposes the paper's two systems behind a small API:
//
//   - a phishing detector: 212 hand-designed, language-independent
//     features over the data sources a browser observes, classified by
//     gradient-boosted trees with a 0.7 discrimination threshold;
//   - a TargetIdentifier that extracts keyterms from a page and uses a
//     search engine to either confirm the page as legitimate or name the
//     brand a phishing page is mimicking;
//   - a Pipeline chaining both, using target identification to discard
//     detector false positives.
//
// The heavy lifting lives in internal packages; this package re-exports
// the names examples/, the root tests and the README snippets use, and
// nothing else — the binaries under cmd/ drive the internal packages
// directly. Experiments against the paper's tables and figures are
// driven by cmd/kpexperiments; README.md describes the layout and the
// experiments.
package knowphish

import (
	"io"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/drift"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/ocr"
	"knowphish/internal/ranking"
	"knowphish/internal/registry"
	"knowphish/internal/search"
	"knowphish/internal/serve"
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
	// TrainConfig tunes detector training.
	TrainConfig = core.TrainConfig
	// Pipeline chains detection with target identification (Section
	// III-C).
	Pipeline = core.Pipeline
	// TargetIdentifier names the brand a phish mimics (Section V).
	TargetIdentifier = target.Identifier
	// GBMConfig tunes the gradient-boosting classifier.
	GBMConfig = ml.GBMConfig
)

// DefaultThreshold is the paper's discrimination threshold (0.7).
const DefaultThreshold = core.DefaultThreshold

// AllSets selects every feature group f1..f5 of Table III.
const AllSets = features.All

// ---------------------------------------------------------------------
// The scoring API: request/verdict pairs with cancellation end to end.
// Build a ScoreRequest with NewScoreRequest plus functional options,
// then call ScoreCtx on a detector or Pipeline.AnalyzeCtx (or the
// batch/stream variants AnalyzeBatchCtx / AnalyzeStream). The verdict
// carries a label, per-stage timings and — when requested — the exact
// per-feature log-odds evidence behind the score.

type (
	// ScoreRequest describes one page plus how to score it.
	ScoreRequest = core.ScoreRequest
	// Verdict is the rich scoring result (label, evidence, timings).
	Verdict = core.Verdict
)

// ExplainTop attaches the top per-feature contributions to a verdict.
const ExplainTop = core.ExplainTop

// NewScoreRequest builds a scoring request for one snapshot.
func NewScoreRequest(snap *Snapshot, opts ...core.ScoreOption) ScoreRequest {
	return core.NewScoreRequest(snap, opts...)
}

// WithDeadline bounds the scoring work per request.
func WithDeadline(d time.Duration) core.ScoreOption { return core.WithDeadline(d) }

// WithExplain attaches per-feature evidence to the verdict.
func WithExplain(level core.ExplainLevel) core.ScoreOption { return core.WithExplain(level) }

// WithTopFeatures caps an ExplainTop explanation at n contributions.
func WithTopFeatures(n int) core.ScoreOption { return core.WithTopFeatures(n) }

// WithoutTargetID skips target identification on detector positives.
func WithoutTargetID() core.ScoreOption { return core.WithoutTargetID() }

// ServerConfig assembles the HTTP scoring service of internal/serve.
type ServerConfig = serve.Config

// NewServer builds the HTTP scoring service (an http.Handler answering
// the /v1 and /v2 endpoints, /healthz and /metrics) over a trained
// detector and a target identifier.
func NewServer(cfg ServerConfig) (*serve.Server, error) { return serve.New(cfg) }

// OpenVerdictStore opens (creating if necessary) the segmented verdict
// store at cfg.Path. A legacy JSONL log found there is migrated into
// segments on first open.
func OpenVerdictStore(cfg store.Config) (store.Backend, error) { return store.Open(cfg) }

// ---------------------------------------------------------------------
// The model lifecycle subsystem: a versioned, content-hashed model
// registry serving the current champion behind an atomic pointer
// (zero-downtime hot swap) and drift monitors over live traffic
// (score-distribution PSI, per-feature population drift, phish-rate
// shift).

type (
	// TrainingStats records a model's training provenance.
	TrainingStats = registry.TrainingStats
	// DetectorSource yields the detector scoring paths use right now —
	// the hot-swap seam of the serving and ingestion layers.
	DetectorSource = core.DetectorSource
	// DriftConfig tunes the drift monitor's windows and thresholds.
	DriftConfig = drift.Config
)

// OpenModelRegistry opens (creating if necessary) a versioned model
// registry and loads its champion, if one was promoted. rank is wired
// into loaded detectors (it is not embedded in artifacts). The registry
// implements DetectorSource, serving the champion lock-free.
func OpenModelRegistry(dir string, rank *ranking.List) (*registry.Registry, error) {
	return registry.Open(dir, rank)
}

// NewDriftMonitor builds a sliding-window drift monitor.
func NewDriftMonitor(cfg DriftConfig) *drift.Monitor { return drift.NewMonitor(cfg) }

// FeatureSetHash fingerprints the feature schema of a feature-group
// selection; models sharing it are hot-swap compatible.
func FeatureSetHash(set features.Set) string { return registry.FeatureSetHash(set) }

// SnapshotFromHTML builds a Snapshot from raw page HTML plus visit
// metadata, resolving relative links against the landing URL. Use it to
// feed real scraped pages into the detector.
func SnapshotFromHTML(startingURL, landingURL string, redirectionChain []string, html string) Snapshot {
	return webpage.FromHTML(startingURL, landingURL, redirectionChain, html)
}

// Train fits a detector (Section IV) on labeled snapshots (label 1 =
// phishing).
func Train(snaps []*Snapshot, labels []int, cfg TrainConfig) (*core.Detector, error) {
	return core.Train(snaps, labels, cfg)
}

// LoadDetector restores a detector saved with Detector.Save. rank may be
// nil (all domains treated as unranked).
func LoadDetector(r io.Reader, rank *ranking.List) (*core.Detector, error) {
	return core.Load(r, rank)
}

// NewTargetIdentifier builds a target identifier over a search engine
// with the paper's defaults (top-5 keyterms, OCR fallback enabled).
func NewTargetIdentifier(engine *search.Engine) *TargetIdentifier {
	return target.New(engine)
}

// NewSearchEngine returns an empty legitimate-web index, the search
// engine target identification queries.
func NewSearchEngine() *search.Engine { return search.NewEngine() }

// NewOCR returns the default simulated OCR recognizer.
func NewOCR() *ocr.Recognizer { return ocr.Default() }

// ReadRankList parses a popularity list (feature 9 of Table IV) in
// Alexa CSV format ("rank,domain" per line).
func ReadRankList(r io.Reader) (*ranking.List, error) { return ranking.Read(r) }

// Synthetic-world helpers: the evaluation substrate of this reproduction.
// They let examples and downstream experiments generate realistic
// labeled corpora without live crawling.
type (
	// WorldConfig tunes world generation.
	WorldConfig = webgen.Config
	// CorpusConfig tunes corpus generation.
	CorpusConfig = dataset.Config
)

// NewWorld generates a synthetic web (brands, hosting, languages).
func NewWorld(cfg WorldConfig) *webgen.World { return webgen.New(cfg) }

// BuildCorpus generates the Table V evaluation campaigns over a fresh
// world.
func BuildCorpus(cfg CorpusConfig) (*dataset.Corpus, error) { return dataset.Build(cfg) }

// VisitSite crawls a generated site into a Snapshot.
func VisitSite(w *webgen.World, site *webgen.Site) (*Snapshot, error) {
	return crawl.VisitSite(w, site)
}
