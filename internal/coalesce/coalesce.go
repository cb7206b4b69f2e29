// Package coalesce is the content-addressed stage memo in front of the
// scoring pipeline.
//
// Four sharded LRU tables memoize the pipeline stages independently,
// keyed by the page's 128-bit content key (webpage.ContentKey): snapshot
// analysis and the extracted feature vector are model-independent and
// survive model promotion; the detector score and the
// target-identification result are stamped with the model version and
// invalidated when a new champion is promoted. These tables are the
// only verdict reuse in the process: a request for which every stage is
// found is what the serving layer reports as a cache hit.
//
// Coalescer.Do hashes the page, looks the four stages up, hands what it
// found to the pipeline's one stage machine
// (core.Pipeline.AnalyzeStagedCtx), and writes back what had to be
// computed. It runs on the caller's goroutine — no queue, no timer, no
// background work — and its verdicts are identical to per-request
// AnalyzeCtx calls. Nothing is batched: the package and type names are
// kept for the callers and metric names that carry them.
package coalesce

import (
	"context"
	"errors"
	"sync/atomic"

	"knowphish/internal/core"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// CacheControl selects how one request interacts with the memo tables.
type CacheControl uint8

const (
	// CacheDefault reads and writes the memo tables.
	CacheDefault CacheControl = iota
	// CacheNoMemo neither reads nor writes: the request computes every
	// stage and leaves no trace.
	CacheNoMemo
	// CacheRefresh recomputes every stage and overwrites the memos —
	// write-only, the forced-revalidation mode.
	CacheRefresh
)

// String returns the wire name used by the v2 API's cache_control field.
func (cc CacheControl) String() string {
	switch cc {
	case CacheNoMemo:
		return "no-memo"
	case CacheRefresh:
		return "refresh"
	default:
		return "default"
	}
}

// ParseCacheControl parses a wire cache-control value ("" parses as
// CacheDefault so absent request fields need no special-casing).
func ParseCacheControl(s string) (CacheControl, error) {
	switch s {
	case "", "default":
		return CacheDefault, nil
	case "no-memo":
		return CacheNoMemo, nil
	case "refresh":
		return CacheRefresh, nil
	default:
		return CacheDefault, errors.New("coalesce: unknown cache_control " + s + " (want default, no-memo or refresh)")
	}
}

// DefaultMemoEntries is each memo table's capacity when Config leaves
// it zero.
const DefaultMemoEntries = 1 << 16

// Config configures a Coalescer.
type Config struct {
	// MemoEntries is the capacity of each of the four stage tables
	// (0 = DefaultMemoEntries; negative disables memoization — Do still
	// fingerprints the page and scores it).
	MemoEntries int
}

// Stats is a point-in-time snapshot of coalescer activity.
type Stats struct {
	// Batches and BatchedItems both report the number of staged scoring
	// passes — every Do that was not bypassed. They are two names for
	// one counter, kept because the metrics surface and the repo
	// benchmark read the pair.
	Batches      uint64 `json:"batches"`
	BatchedItems uint64 `json:"batched_items"`
	// Bypassed counts requests routed around the memo (explain or
	// feature-masked requests, whose stages are not the page's canonical
	// results).
	Bypassed uint64 `json:"bypassed"`

	Analysis TableStats `json:"analysis"`
	Features TableStats `json:"features"`
	Score    TableStats `json:"score"`
	Target   TableStats `json:"target"`
}

// analysisEntry memoizes the analysis stage. fp carries the hex content
// fingerprint so warm requests reuse one string forever instead of
// re-encoding it.
type analysisEntry struct {
	a  *webpage.Analysis
	fp string
}

// scoreEntry memoizes the detector score for one model version.
type scoreEntry struct {
	score float64
	ver   string
	fp    string
}

// targetEntry memoizes the target-identification result of a detector
// positive for one model version. The result is held by pointer —
// allocated once at insert, shared read-only by every hit — so a warm
// lookup never copies it onto the heap.
type targetEntry struct {
	res *target.Result
	ver string
}

// Coalescer memoizes the scoring pipeline's stages by page content. The
// zero value is not usable; build one with New. A nil *Coalescer is
// valid and degrades Do to a plain AnalyzeCtx call.
type Coalescer struct {
	analysis *memoTable[analysisEntry]
	features *memoTable[[]float64]
	score    *memoTable[scoreEntry]
	target   *memoTable[targetEntry]

	passes   atomic.Uint64
	bypassed atomic.Uint64
}

// New builds a Coalescer from cfg (zero fields take the package
// defaults).
func New(cfg Config) *Coalescer {
	memo := cfg.MemoEntries
	if memo == 0 {
		memo = DefaultMemoEntries
	}
	return &Coalescer{
		analysis: newMemoTable[analysisEntry](memo),
		features: newMemoTable[[]float64](memo),
		score:    newMemoTable[scoreEntry](memo),
		target:   newMemoTable[targetEntry](memo),
	}
}

// Do scores one request through the memo: content hash, memo lookups,
// one staged pipeline pass, memo write-back. The verdict is identical
// to what pipe.AnalyzeCtx would produce, with ContentFingerprint set;
// when prov is non-nil it is filled with each stage's provenance (memo
// vs computed; empty for stages that did not run).
//
// Explain and feature-masked requests are per-request by nature and are
// transparently routed to pipe.AnalyzeCtx. A nil receiver routes
// everything there — callers need no "is memoization on" branches.
func (c *Coalescer) Do(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest, cc CacheControl, prov *core.MemoProvenance) (core.Verdict, error) {
	if c == nil || req.Explains() || req.FeatureMask() != 0 {
		if c != nil {
			c.bypassed.Add(1)
		}
		return pipe.AnalyzeCtx(ctx, req)
	}
	snap := req.Snapshot
	if snap == nil {
		if a := req.PrecomputedAnalysis(); a != nil {
			snap = a.Snap
		}
	}
	if snap == nil {
		return core.Verdict{}, core.ErrNoSnapshot
	}
	c.passes.Add(1)

	key := req.ContentKey(snap)
	ver := pipe.Detector.Version()
	reads := cc == CacheDefault
	writes := cc != CacheNoMemo

	var st core.StageResults
	fp := ""
	if reads {
		if e, ok := c.analysis.Get(key); ok {
			st.Analysis, fp = e.a, e.fp
		}
		if v, ok := c.features.Get(key); ok {
			st.Vector = v
		}
		if e, ok := c.score.Get(key); ok && e.ver == ver {
			st.HasScore, st.Score = true, e.score
			if fp == "" {
				fp = e.fp
			}
		}
		// The target table only ever holds detector positives: probing it
		// for a page whose memoised score is below the threshold would
		// count a miss on every warm legitimate hit.
		if !st.HasScore || st.Score >= pipe.Detector.Threshold() {
			if e, ok := c.target.Get(key); ok && e.ver == ver {
				st.TargetResult = e.res
			}
		}
	}
	// The feature memo wants the vector whenever it does not hold it.
	st.KeepVector = writes && c.features != nil && st.Vector == nil

	v, err := pipe.AnalyzeStagedCtx(ctx, req, &st)
	if err != nil {
		return core.Verdict{}, err
	}
	if fp == "" {
		fp = key.String()
	}
	v.ContentFingerprint = fp
	computed := st.Computed
	if writes {
		if computed&core.StageMaskAnalysis != 0 {
			c.analysis.Put(key, analysisEntry{a: st.Analysis, fp: fp})
		}
		if computed&core.StageMaskFeatures != 0 && st.Vector != nil {
			c.features.Put(key, st.Vector)
		}
		if computed&core.StageMaskScore != 0 {
			c.score.Put(key, scoreEntry{score: v.Score, ver: v.ModelVersion, fp: fp})
		}
		if computed&core.StageMaskTarget != 0 {
			res := v.Target
			c.target.Put(key, targetEntry{res: &res, ver: v.ModelVersion})
		}
	}
	if prov != nil {
		*prov = core.MemoProvenance{}
		switch {
		case computed&core.StageMaskAnalysis != 0:
			prov.Analysis = core.ProvComputed
		case st.Analysis != nil:
			prov.Analysis = core.ProvMemo
		}
		switch {
		case computed&core.StageMaskFeatures != 0:
			prov.Features = core.ProvComputed
		case st.Vector != nil && !st.HasScore:
			prov.Features = core.ProvMemo
		}
		if st.HasScore {
			prov.Score = core.ProvMemo
		} else {
			prov.Score = core.ProvComputed
		}
		if v.TargetRun {
			if computed&core.StageMaskTarget != 0 {
				prov.Target = core.ProvComputed
			} else {
				prov.Target = core.ProvMemo
			}
		}
	}
	return v, nil
}

// Enabled reports whether the tables hold anything: false for a nil
// Coalescer or one built with negative MemoEntries, where every request
// computes every stage.
func (c *Coalescer) Enabled() bool { return c != nil && c.score != nil }

// InvalidateModel flushes the model-dependent memo tables (detector
// score, target result) — the promotion hook. Analysis and feature
// memos are model-independent and survive. Entries are additionally
// version-stamped, so even a read racing the flush cannot resurrect a
// stale score under the new champion.
func (c *Coalescer) InvalidateModel() {
	if c == nil {
		return
	}
	c.score.Flush()
	c.target.Flush()
}

// Snapshot returns current counters.
func (c *Coalescer) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	passes := c.passes.Load()
	return Stats{
		Batches:      passes,
		BatchedItems: passes,
		Bypassed:     c.bypassed.Load(),
		Analysis:     c.analysis.stats(),
		Features:     c.features.stats(),
		Score:        c.score.stats(),
		Target:       c.target.stats(),
	}
}
