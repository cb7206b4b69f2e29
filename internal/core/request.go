package core

import (
	"fmt"
	"time"

	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// ExplainLevel selects how much per-feature evidence a verdict carries.
type ExplainLevel int

const (
	// ExplainNone produces no explanation (the fast default).
	ExplainNone ExplainLevel = iota
	// ExplainTop attaches the top feature contributions by |log-odds|
	// (DefaultTopFeatures unless overridden with WithTopFeatures).
	ExplainTop
	// ExplainFull attaches every feature with a nonzero contribution.
	ExplainFull
)

// DefaultTopFeatures is the contribution count of an ExplainTop verdict
// when the request does not set one.
const DefaultTopFeatures = 10

// String returns the wire name used by the serving layer and CLI flags.
func (l ExplainLevel) String() string {
	switch l {
	case ExplainNone:
		return "none"
	case ExplainTop:
		return "top"
	case ExplainFull:
		return "full"
	default:
		return fmt.Sprintf("explain(%d)", int(l))
	}
}

// ParseExplainLevel parses the wire name of an explain level ("" parses
// as ExplainNone so absent request fields need no special-casing).
func ParseExplainLevel(s string) (ExplainLevel, error) {
	switch s {
	case "", "none":
		return ExplainNone, nil
	case "top":
		return ExplainTop, nil
	case "full":
		return ExplainFull, nil
	default:
		return ExplainNone, fmt.Errorf("core: unknown explain level %q (want none, top or full)", s)
	}
}

// ScoreRequest describes one page to score plus how to score it. Build
// one with NewScoreRequest; the zero value scores nothing.
type ScoreRequest struct {
	// Snapshot is the page to score. Required.
	Snapshot *webpage.Snapshot

	deadline   time.Duration
	explain    ExplainLevel
	topN       int
	skipTarget bool
	analysis   *webpage.Analysis
	contentKey webpage.Key128 // zero: not supplied
	targetBuf  *TargetBuffer  // nil: a memo hit's target result is decoded onto the heap
}

// ScoreOption is a functional option of NewScoreRequest.
type ScoreOption func(*ScoreRequest)

// NewScoreRequest builds a request for one snapshot. With no options it
// reproduces the classic behavior: no deadline, no explanation, target
// identification on detector positives.
func NewScoreRequest(snap *webpage.Snapshot, opts ...ScoreOption) ScoreRequest {
	// Option-free requests never take the request's address, so they
	// build entirely on the caller's stack — the hot default for the
	// feed drain and memoized scoring. With options, &req flows into
	// the option closures and escape analysis materializes the request
	// on the heap: one allocation, regardless of option count.
	if len(opts) == 0 {
		return ScoreRequest{Snapshot: snap}
	}
	req := ScoreRequest{Snapshot: snap}
	for _, opt := range opts {
		opt(&req)
	}
	return req
}

// WithDeadline bounds the scoring work: the request's context is capped
// to d, so a slow page stops consuming CPU once its budget is spent.
// d <= 0 means no per-request deadline.
func WithDeadline(d time.Duration) ScoreOption {
	return func(r *ScoreRequest) { r.deadline = d }
}

// WithExplain attaches per-feature evidence to the verdict.
func WithExplain(level ExplainLevel) ScoreOption {
	return func(r *ScoreRequest) { r.explain = level }
}

// WithTopFeatures caps an ExplainTop explanation at n contributions
// (n <= 0 → DefaultTopFeatures).
func WithTopFeatures(n int) ScoreOption {
	return func(r *ScoreRequest) { r.topN = n }
}

// WithoutTargetID skips target identification even for detector
// positives: the verdict reports the raw detector call without the
// false-positive-removal pass — cheaper, and what a client wants when
// it only consumes the score.
func WithoutTargetID() ScoreOption {
	return func(r *ScoreRequest) { r.skipTarget = true }
}

// WithAnalysis supplies a precomputed page analysis (from
// webpage.Analyze), skipping the analysis stage — the cached-page fast
// path. Callers that score one page repeatedly (benchmark loops, cache
// refreshes, several detectors over the same snapshot) analyze once and
// reuse; with it, the warm scoring path performs zero heap
// allocations. a must be the analysis of the request's snapshot; when
// the request has no snapshot, a.Snap stands in for it.
func WithAnalysis(a *webpage.Analysis) ScoreOption {
	return func(r *ScoreRequest) { r.analysis = a }
}

// Explains reports whether the request asks for an explanation.
func (r *ScoreRequest) Explains() bool { return r.explain != ExplainNone }

// PrecomputedAnalysis returns the analysis supplied by WithAnalysis
// (nil when the request analyzes its snapshot itself).
func (r *ScoreRequest) PrecomputedAnalysis() *webpage.Analysis { return r.analysis }

// WithContentKey returns the request carrying its page's content
// identity, for a caller that already hashed the page (a batch deduping
// its pages) so the memoizing path does not hash it again. k must be
// webpage.ContentKey of the request's snapshot. A method rather than a
// ScoreOption: options cost a heap allocation per request.
func (r ScoreRequest) WithContentKey(k webpage.Key128) ScoreRequest {
	r.contentKey = k
	return r
}

// TargetBuffer is storage a caller lends a memoizing pass for the
// target result of a memo hit (WithTargetBuffer): the result's
// candidate and term lists are decoded into its arrays, which grow to
// the largest result they have held and are reused after that. The
// verdict's Target aliases them, so the caller must be done with the
// verdict before it lends the buffer again.
type TargetBuffer struct {
	Candidates []target.Candidate
	Terms      []string
}

// WithTargetBuffer returns the request lending buf to the memo (see
// TargetBuffer), so that a hit on the page's target result allocates
// nothing. A method rather than a ScoreOption, like WithContentKey.
func (r ScoreRequest) WithTargetBuffer(buf *TargetBuffer) ScoreRequest {
	r.targetBuf = buf
	return r
}

// TargetBuffer returns the buffer lent by WithTargetBuffer, or nil.
func (r *ScoreRequest) TargetBuffer() *TargetBuffer { return r.targetBuf }

// ContentKey returns the page's content identity: the one supplied by
// WithContentKey, else the hash of snap.
func (r *ScoreRequest) ContentKey(snap *webpage.Snapshot) webpage.Key128 {
	if r.contentKey != (webpage.Key128{}) {
		return r.contentKey
	}
	return webpage.ContentKey(snap)
}

// topFeatures resolves the contribution cap for the request's level.
func (r *ScoreRequest) topFeatures() int {
	switch r.explain {
	case ExplainFull:
		return 0 // everything nonzero
	default:
		if r.topN > 0 {
			return r.topN
		}
		return DefaultTopFeatures
	}
}
