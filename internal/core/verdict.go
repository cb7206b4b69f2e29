package core

import (
	"context"
	"errors"
	"time"

	"knowphish/internal/features"
	"knowphish/internal/pool"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// Verdict labels.
const (
	// LabelPhishing is the Label of a final phishing verdict.
	LabelPhishing = "phishing"
	// LabelLegitimate is the Label of a final legitimate verdict.
	LabelLegitimate = "legitimate"
)

// Explanation is the per-feature evidence behind one verdict: an exact
// decomposition of the raw score in log-odds space,
//
//	sigmoid(Bias + Σ Contributions[i].LogOdds over ALL features)
//
// reproduces the verdict's Score (an ExplainTop explanation lists only
// the largest terms of that sum). This is the paper's Section IV-C
// feature-importance analysis made per-prediction: not "the model keys
// on f4 in general" but "THIS page was flagged because of these URLs
// and these terms".
type Explanation struct {
	// Bias is the score's log-odds baseline before any feature evidence.
	Bias float64 `json:"bias"`
	// Contributions are the ranked per-feature terms, largest |log-odds|
	// first.
	Contributions []features.Contribution `json:"contributions"`
}

// StageTimings reports where a verdict's latency went, in nanoseconds.
// A stage that did not run reports 0.
type StageTimings struct {
	// AnalyzeNS is snapshot analysis (URL decomposition, term
	// distributions).
	AnalyzeNS int64 `json:"analyze_ns"`
	// FeaturesNS is 212-feature extraction.
	FeaturesNS int64 `json:"features_ns"`
	// ScoreNS is GBM classification.
	ScoreNS int64 `json:"score_ns"`
	// TargetNS is target identification (detector positives only).
	TargetNS int64 `json:"target_ns"`
	// ExplainNS is contribution extraction (explain requests only).
	ExplainNS int64 `json:"explain_ns"`
	// TotalNS is the whole request, including option plumbing.
	TotalNS int64 `json:"total_ns"`
}

// Verdict is the rich scoring result of the v2 API: the classic Outcome
// plus a human-readable label, the threshold it was read against,
// optional per-feature evidence and per-stage timings.
type Verdict struct {
	Outcome
	// Label is "phishing" or "legitimate", the thresholded FinalPhish.
	Label string `json:"label"`
	// Threshold is the discrimination threshold the label used.
	Threshold float64 `json:"threshold"`
	// Explanation is the per-feature evidence (explain requests only).
	Explanation *Explanation `json:"explanation,omitempty"`
	// Timings reports per-stage latency.
	Timings StageTimings `json:"timings"`
	// ContentFingerprint is the page's content identity spelled as
	// webpage.Fingerprint does (32 hex digits of sha256 over landing URL
	// and content) — the stem of the v2 ETag and the fingerprint the
	// feed stores. It is ContentKey.String(), filled in only where a
	// verdict is rendered: the v2 score endpoints set it on the
	// documents they write. No scoring path sets it, so a verdict kept
	// in memory carries no per-page string.
	ContentFingerprint string `json:"content_fingerprint,omitempty"`
	// ContentKey is the page's content identity (webpage.ContentKey),
	// the memo tables' key. Set by the memoizing path
	// (coalesce.Coalescer.Do, whatever its cache mode); zero on plain
	// ScoreCtx / AnalyzeCtx verdicts and on explain requests, which
	// bypass the memo, so callers that never read it do not pay the
	// hash. Never encoded: the wire carries ContentFingerprint.
	ContentKey webpage.Key128 `json:"-"`
	// Memo reports, per pipeline stage, whether the stage's result was
	// served from the content-addressed memo tables or computed fresh.
	// Nil when the verdict did not pass through the memoizing path.
	Memo *MemoProvenance `json:"memo,omitempty"`
}

// Stage provenance values of MemoProvenance fields.
const (
	// ProvMemo marks a stage whose result was served from memo.
	ProvMemo = "memo"
	// ProvComputed marks a stage that was computed for this request.
	ProvComputed = "computed"
)

// MemoProvenance is the per-stage cache provenance of a memoized
// verdict: each field is "memo", "computed", or empty when the stage
// did not run at all (target identification on a detector negative).
type MemoProvenance struct {
	Analysis string `json:"analysis,omitempty"`
	Features string `json:"features,omitempty"`
	Score    string `json:"score,omitempty"`
	Target   string `json:"target,omitempty"`
}

// Hit reports whether the verdict was assembled from memo alone: the
// score was found and no stage had to run. (The zero provenance of a
// verdict that never went through the memo is not a hit.)
func (p MemoProvenance) Hit() bool {
	return p.Score == ProvMemo && p.Analysis != ProvComputed &&
		p.Features != ProvComputed && p.Target != ProvComputed
}

func label(phish bool) string {
	if phish {
		return LabelPhishing
	}
	return LabelLegitimate
}

// ErrNoSnapshot rejects a ScoreRequest without a page.
var ErrNoSnapshot = errors.New("core: ScoreRequest has no snapshot")

// ctxCause returns the context's cause when it is done, nil otherwise.
func ctxCause(ctx context.Context) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// StageMask identifies the pipeline stages one call computed (as
// opposed to receiving pre-supplied, or skipping).
type StageMask uint8

const (
	// StageMaskAnalysis marks snapshot analysis.
	StageMaskAnalysis StageMask = 1 << iota
	// StageMaskFeatures marks feature extraction.
	StageMaskFeatures
	// StageMaskScore marks GBM classification.
	StageMaskScore
	// StageMaskTarget marks target identification.
	StageMaskTarget
)

// StageResults carries the model-dependent stage results into one
// AnalyzeStagedCtx call and reports what the call ran. The caller
// pre-fills what it already holds for the page under this detector
// (internal/coalesce's content-addressed memo is the intended caller);
// the stage machine runs only the rest. Model-independent intermediates
// — the analysis, the feature vector — are neither supplied nor handed
// back: the call analyzes the page itself when a stage needs it, and
// the vector never leaves the call.
type StageResults struct {
	// HasScore marks Score as the page's detector score under this
	// detector, skipping extraction and classification. Explain requests
	// recompute regardless: evidence needs the model-space vector.
	HasScore bool
	// Score is the supplied detector score (meaningful with HasScore).
	Score float64
	// TargetResult is the supplied target-identification result of a
	// detector positive (nil → identify when needed).
	TargetResult *target.Result
	// Computed reports which stages the call ran.
	Computed StageMask
}

// ScoreCtx scores one page with cancellation: ctx (tightened by the
// request's deadline, if any) is observed between pipeline stages, so a
// cancelled or expired request stops consuming CPU at the next stage
// boundary instead of running to completion. Target identification
// never runs — use Pipeline.AnalyzeCtx for the full system. On
// cancellation the zero Verdict and context.Cause are returned.
func (d *Detector) ScoreCtx(ctx context.Context, req ScoreRequest) (Verdict, error) {
	return d.scoreCtx(ctx, req, nil, nil)
}

// AnalyzeCtx runs the full detection → target-identification pipeline
// on one request with cancellation, producing a rich Verdict. It is the
// context-aware, explainable successor of Analyze: identical scores and
// final calls, plus label, evidence and timings.
func (p *Pipeline) AnalyzeCtx(ctx context.Context, req ScoreRequest) (Verdict, error) {
	return p.Detector.scoreCtx(ctx, req, p.Identifier, nil)
}

// AnalyzeStagedCtx is AnalyzeCtx over pre-supplied stage results: the
// verdict is the one AnalyzeCtx would produce (apart from Timings, which
// report 0 for stages that did not run), taken from st where it is
// filled and computed where it is not; st.Computed names what ran.
func (p *Pipeline) AnalyzeStagedCtx(ctx context.Context, req ScoreRequest, st *StageResults) (Verdict, error) {
	return p.Detector.scoreCtx(ctx, req, p.Identifier, st)
}

// scoreCtx is the one stage machine behind ScoreCtx, AnalyzeCtx and
// AnalyzeStagedCtx (st is nil for the first two).
//
// A stage runs only when something downstream consumes its result: a
// supplied score needs no vector, and a supplied negative — or a
// positive with a supplied target result — needs no analysis either,
// which is what makes a fully memoised request cheap (analysis is the
// expensive stage).
//
// The analysis is released when the call returns: the verdict keeps
// nothing of it (a target result's keyterms are copied out of the
// analysis's dictionary, which the next page overwrites), so a cold
// score leaves only its verdict behind.
//
// Unless the vector must outlive the call (capture, explanation) it is
// extracted into a pooled buffer returned at every exit. With that, the
// pooled analysis and the model's flattened tree layout, a cold score
// of a page below the threshold allocates nothing once the pools are
// warm (pinned by TestScoreCtxWarmPathZeroAllocs).
//
// Every stage that runs is measured into Verdict.Timings; a caller that
// traces its requests turns those timings into spans itself, so the
// stage machine knows nothing of tracing.
func (d *Detector) scoreCtx(ctx context.Context, req ScoreRequest, id *target.Identifier, st *StageResults) (Verdict, error) {
	t0 := time.Now()
	var none StageResults
	if st == nil {
		st = &none
	}
	if req.Snapshot == nil {
		return Verdict{}, ErrNoSnapshot
	}
	if req.Options.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Options.Deadline)
		defer cancel()
	}
	if err := ctxCause(ctx); err != nil {
		return Verdict{}, err
	}

	var v Verdict
	v.Threshold = d.threshold

	hasScore := st.HasScore && !req.Explains()
	extract := !hasScore
	// Identification runs on detector positives; before classification
	// any page may turn out to be one.
	mayIdentify := id != nil && !req.Options.SkipTarget && st.TargetResult == nil &&
		(!hasScore || st.Score >= d.threshold)

	// Stage 1: snapshot analysis, the input of extraction and
	// identification.
	var a *webpage.Analysis
	if extract || mayIdentify {
		ts := time.Now()
		a = webpage.Analyze(req.Snapshot)
		defer a.Release()
		v.Timings.AnalyzeNS = time.Since(ts).Nanoseconds()
		st.Computed |= StageMaskAnalysis
		if err := ctxCause(ctx); err != nil {
			return Verdict{}, err
		}
	}

	// Stage 2: feature extraction. vecBuf / projBuf are the pooled
	// buffers; vecBuf stays nil on explain requests, whose vector is not
	// pooled.
	var vec []float64
	var vecBuf, projBuf *[]float64
	if extract {
		ts := time.Now()
		if req.Explains() {
			vec = d.extractor.Extract(a)
		} else {
			vecBuf = features.GetVector()
			*vecBuf = d.extractor.AppendFeatures((*vecBuf)[:0], a)
			vec = *vecBuf
		}
		v.Timings.FeaturesNS = time.Since(ts).Nanoseconds()
		st.Computed |= StageMaskFeatures
		if err := ctxCause(ctx); err != nil {
			features.PutVector(vecBuf)
			return Verdict{}, err
		}
	}

	// Stage 3: classification, in the detector's trained column space.
	var modelVec []float64
	if hasScore {
		v.Score = st.Score
	} else {
		ts := time.Now()
		modelVec = vec
		if d.columns != nil {
			projBuf = features.GetVector()
			modelVec = appendProjected((*projBuf)[:0], vec, d.columns)
			*projBuf = modelVec
		}
		v.Score = d.model.Score(modelVec)
		v.Timings.ScoreNS = time.Since(ts).Nanoseconds()
		st.Computed |= StageMaskScore
	}
	v.DetectorPhish = v.Score >= d.threshold
	v.FinalPhish = v.DetectorPhish

	// Stage 4: target identification confirms detector positives and
	// overturns false ones (Section VI-D).
	if id != nil && v.DetectorPhish && !req.Options.SkipTarget {
		v.TargetRun = true
		if st.TargetResult != nil {
			v.Target = *st.TargetResult
		} else {
			if err := ctxCause(ctx); err != nil {
				features.PutVector(vecBuf)
				features.PutVector(projBuf)
				return Verdict{}, err
			}
			ts := time.Now()
			v.Target = id.Identify(a)
			v.Timings.TargetNS = time.Since(ts).Nanoseconds()
			st.Computed |= StageMaskTarget
		}
		if v.Target.Verdict == target.VerdictLegitimate {
			v.FinalPhish = false
		}
	}

	// Stage 5: evidence.
	if req.Explains() {
		if err := ctxCause(ctx); err != nil {
			features.PutVector(projBuf)
			return Verdict{}, err
		}
		ts := time.Now()
		contribs, bias := d.model.Contributions(modelVec)
		v.Explanation = &Explanation{
			Bias:          bias,
			Contributions: features.TopContributions(vec, contribs, d.columns, req.topFeatures()),
		}
		v.Timings.ExplainNS = time.Since(ts).Nanoseconds()
	}

	v.Label = label(v.FinalPhish)
	v.Timings.TotalNS = time.Since(t0).Nanoseconds()
	features.PutVector(vecBuf)
	features.PutVector(projBuf)
	return v, nil
}

// projected maps a full feature vector into the detector's trained
// space (identity for all-features detectors).
func (d *Detector) projected(v []float64) []float64 {
	if d.columns == nil {
		return v
	}
	return appendProjected(make([]float64, 0, len(d.columns)), v, d.columns)
}

// appendProjected appends v's columns cols to dst.
func appendProjected(dst, v []float64, cols []int) []float64 {
	for _, c := range cols {
		dst = append(dst, v[c])
	}
	return dst
}

// ScoreBatchCtx scores many requests concurrently over the shared
// worker pool, observing ctx between items. The returned slice always
// has len(reqs) entries in request order; an entry is nil when its item
// did not produce a verdict — cut off by batch cancellation, expired
// under its own per-item deadline, or invalid (nil snapshot). The error
// is context.Cause(ctx) when the whole batch was cut short; a nil error
// therefore means every item was attempted, not that every entry is
// non-nil. workers <= 0 uses GOMAXPROCS.
func (d *Detector) ScoreBatchCtx(ctx context.Context, reqs []ScoreRequest, workers int) ([]*Verdict, error) {
	return batchCtx(ctx, reqs, workers, func(ctx context.Context, r ScoreRequest) (Verdict, error) {
		return d.ScoreCtx(ctx, r)
	})
}

func batchCtx(ctx context.Context, reqs []ScoreRequest, workers int, one func(context.Context, ScoreRequest) (Verdict, error)) ([]*Verdict, error) {
	out := make([]*Verdict, len(reqs))
	err := pool.ForEachIndexCtx(ctx, len(reqs), workers, func(i int) {
		if v, verr := one(ctx, reqs[i]); verr == nil {
			out[i] = &v
		}
	})
	return out, err
}
