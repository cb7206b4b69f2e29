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
// the names examples/, the root tests and the README snippets use — the
// detector, the target identifier and the synthetic world — and nothing
// else: it builds no server and no store. The binaries under cmd/ drive
// the internal packages directly. Experiments against the paper's tables and figures are
// driven by cmd/kpexperiments; README.md describes the layout and the
// experiments.
package knowphish

import (
	"io"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/ocr"
	"knowphish/internal/ranking"
	"knowphish/internal/search"
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

// ---------------------------------------------------------------------
// The scoring API: request/verdict pairs with cancellation end to end.
// Build a ScoreRequest with NewScoreRequest plus functional options,
// then call ScoreCtx on a detector or Pipeline.AnalyzeCtx (or the
// batch variant ScoreBatchCtx). The verdict
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
