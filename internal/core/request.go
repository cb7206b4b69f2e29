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
	// (DefaultTopFeatures unless Options.TopFeatures overrides it).
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

// Options are how to score a request. The zero value reproduces the
// classic behavior: no deadline, no explanation, target identification
// on detector positives.
type Options struct {
	// Deadline bounds the scoring work: the request's context is capped
	// to it, so a slow page stops consuming CPU once its budget is spent.
	// <= 0 means no per-request deadline.
	Deadline time.Duration
	// Explain attaches per-feature evidence to the verdict.
	Explain ExplainLevel
	// TopFeatures caps an ExplainTop explanation at that many
	// contributions (<= 0 → DefaultTopFeatures).
	TopFeatures int
	// SkipTarget skips target identification even for detector
	// positives: the verdict reports the raw detector call without the
	// false-positive-removal pass — cheaper, and what a client wants when
	// it only consumes the score.
	SkipTarget bool
}

// ScoreRequest describes one page to score plus how to score it. Build
// one with NewScoreRequest or as a literal; the zero value scores
// nothing.
type ScoreRequest struct {
	// Snapshot is the page to score. Required.
	Snapshot *webpage.Snapshot
	// Options say how to score it.
	Options Options

	contentKey webpage.Key128 // zero: not supplied
	targetBuf  *TargetBuffer  // nil: a memo hit's target result is decoded onto the heap
}

// NewScoreRequest builds a request for one snapshot with the zero
// Options.
func NewScoreRequest(snap *webpage.Snapshot) ScoreRequest {
	return ScoreRequest{Snapshot: snap}
}

// Explains reports whether the request asks for an explanation.
func (r *ScoreRequest) Explains() bool { return r.Options.Explain != ExplainNone }

// WithContentKey returns the request carrying its page's content
// identity, for a caller that already hashed the page (a batch deduping
// its pages) so the memoizing path does not hash it again. k must be
// webpage.ContentKey of the request's snapshot.
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
// nothing.
func (r ScoreRequest) WithTargetBuffer(buf *TargetBuffer) ScoreRequest {
	r.targetBuf = buf
	return r
}

// TargetBuffer returns the buffer lent by WithTargetBuffer, or nil.
func (r *ScoreRequest) TargetBuffer() *TargetBuffer { return r.targetBuf }

// ContentKey returns the page's content identity: the one supplied by
// WithContentKey, else the hash of the request's snapshot.
func (r *ScoreRequest) ContentKey() webpage.Key128 {
	if r.contentKey != (webpage.Key128{}) {
		return r.contentKey
	}
	return webpage.ContentKey(r.Snapshot)
}

// topFeatures resolves the contribution cap for the request's level.
func (r *ScoreRequest) topFeatures() int {
	switch r.Options.Explain {
	case ExplainFull:
		return 0 // everything nonzero
	default:
		if r.Options.TopFeatures > 0 {
			return r.Options.TopFeatures
		}
		return DefaultTopFeatures
	}
}
