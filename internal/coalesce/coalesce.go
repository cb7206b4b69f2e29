// Package coalesce is the content-addressed stage memo in front of the
// scoring pipeline.
//
// Two sharded LRU tables, keyed by the page's 128-bit content key
// (webpage.ContentKey), memoize what a verdict is made of: the detector
// score and, for a detector positive, the target-identification result.
// The tables belong to one detector, the first one a pass goes through:
// a process serves one model for its lifetime, so an entry carries no
// model stamp. Each shard of a table is a slab — entries in chunks of
// slots, linked into recency order by slot number and found through an
// open-addressed index — so an entry costs its data and a few bytes of
// index, not heap objects of its own. A score slot holds no pointer at
// all (key, score and links: 32 bytes), so the collector never scans
// the score table; the 32-hex fingerprint is spelled from the key by
// whoever renders or stores it. A target entry is stored packed for
// its whole life — one pointer-free string naming each candidate by its
// search-index domain id — and every hit decodes it into storage the
// request lends (core.ScoreRequest.WithTargetBuffer), so reading an
// entry never makes it grow. The memo keeps verdicts, not pages: no
// entry references the snapshot, its analysis or its feature vector, so
// nothing a client sent stays reachable after its response is written,
// and an entry's size does not depend on the page (see
// Config.MemoEntries). These tables are the only verdict reuse in the
// process: a request whose score — and target result, when it needs
// one — is found is what the serving layer reports as a cache hit.
//
// Coalescer.Do hashes the page, looks the score up and then, for a
// positive, the target result, hands what it found to the pipeline's
// one stage machine (core.Pipeline.AnalyzeStagedCtx), and writes back
// what had to be computed. It runs on the caller's goroutine — no
// queue, no timer, no background work — and its verdicts are identical
// to per-request AnalyzeCtx calls. Nothing is batched: the package and
// type names are kept for the callers and metric names that carry them.
package coalesce

import (
	"context"
	"errors"
	"sync/atomic"

	"knowphish/internal/core"
	"knowphish/internal/search"
	"knowphish/internal/target"
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
// it zero (see Config.MemoEntries for what that is in bytes).
const DefaultMemoEntries = 1 << 16

// Config configures a Coalescer.
type Config struct {
	// MemoEntries is the capacity of each of the two tables, score and
	// target (0 = DefaultMemoEntries; negative disables memoization — Do
	// still computes the page's content key and scores it). It bounds
	// memory, not only the entry count, because no entry grows with its
	// page: a score entry is about 45 bytes (a 32-byte slot of key,
	// score and links, and its index cells), and a target entry —
	// detector positives only — about 230 bytes more: a 40-byte slot and
	// a packed string of its verdict, at most 30 candidates as domain
	// ids, and its key terms, copied out of the page (the one part that
	// is as long as the page spelled it). Reading an entry does not
	// change its size. The default is ~2.9 MB of scores when full and
	// ~18 MB if every page were a positive
	// (TestHeapAllocRetainedPerScoreEntry,
	// TestHeapAllocRetainedPerTargetEntry and
	// TestHeapAllocRetainedPerPage hold the per-page figures).
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
	// Bypassed counts requests routed around the memo: explain requests,
	// whose evidence is never memoized, and passes through a detector the
	// tables do not belong to.
	Bypassed uint64 `json:"bypassed"`

	// Analysis and Features always read zero: there are no such tables.
	// Like Batches/BatchedItems they stay for the metrics golden and the
	// repo benchmark, which read the four by name.
	Analysis TableStats `json:"analysis"`
	Features TableStats `json:"features"`
	Score    TableStats `json:"score"`
	Target   TableStats `json:"target"`
}

// scoreEntry memoizes the detector score. It holds no pointer — the
// slot's key is the page's identity, and callers spell it where they
// render it — so a score table is never scanned by the collector.
type scoreEntry struct {
	score float64
}

// targetEntry memoizes the target-identification result of a detector
// positive, packed for the entry's whole life (packTarget): one
// pointer-free string that names each candidate by its search-index
// domain id, about 160 bytes where the result it encodes takes 0.75 KB.
// Every hit decodes it into storage the request lends.
type targetEntry string

// Coalescer memoizes the scoring pipeline's stages by page content. The
// zero value is not usable; build one with New. A nil *Coalescer is
// valid and degrades Do to a plain AnalyzeCtx call.
type Coalescer struct {
	score  *memoTable[scoreEntry]
	target *memoTable[targetEntry]

	// detector is the detector the tables belong to: the first one a
	// pass went through. A process serves one detector, so every pass
	// goes through it; a pass through another is bypassed, so it can
	// neither read a score this one computed nor leave one of its own.
	detector atomic.Pointer[core.Detector]

	// engine is the search index whose domain ids target entries hold:
	// the first one an entry was packed against. A process has one
	// identifier, so one engine; a result identified against another is
	// not memoized, and an entry read through another is a miss.
	engine atomic.Pointer[search.Engine]

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
		score:  newMemoTable[scoreEntry](memo),
		target: newMemoTable[targetEntry](memo),
	}
}

// owns reports whether d is the detector the tables belong to, pinning
// d when no pass has pinned one yet. Once the pin is set it is one
// atomic load.
func (c *Coalescer) owns(d *core.Detector) bool {
	p := c.detector.Load()
	if p == nil {
		c.detector.CompareAndSwap(nil, d)
		p = c.detector.Load()
	}
	return p == d
}

// Do scores one request through the memo: content hash, memo lookups,
// one staged pipeline pass, memo write-back. The verdict is identical
// to what pipe.AnalyzeCtx would produce, with ContentKey set;
// when prov is non-nil it is filled with each stage's provenance (memo
// vs computed; empty for stages that did not run — analysis and features
// are only ever computed or empty).
//
// A target result found in the memo is decoded into the buffer the
// request lends (core.ScoreRequest.WithTargetBuffer), which the
// verdict's Target then aliases; a request that lends none gets a
// decode of its own on the heap.
//
// Explain requests are per-request by nature and are transparently
// routed to pipe.AnalyzeCtx, and so is a pass through a detector other
// than the one the tables belong to (see owns). A nil receiver routes
// everything there — callers need no "is memoization on" branches.
func (c *Coalescer) Do(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest, cc CacheControl, prov *core.MemoProvenance) (core.Verdict, error) {
	if c == nil || req.Explains() || !c.owns(pipe.Detector) {
		if c != nil {
			c.bypassed.Add(1)
		}
		return pipe.AnalyzeCtx(ctx, req)
	}
	if req.Snapshot == nil {
		return core.Verdict{}, core.ErrNoSnapshot
	}
	c.passes.Add(1)

	key := req.ContentKey()
	reads := cc == CacheDefault && c.Enabled()
	writes := cc != CacheNoMemo && c.Enabled()

	var st core.StageResults
	if reads {
		if e, ok := c.score.Get(key); ok {
			st.HasScore, st.Score = true, e.score
		}
		// The target table only ever holds detector positives: probing it
		// for a page whose memoised score is below the threshold would
		// count a miss on every warm legitimate hit.
		if !st.HasScore || st.Score >= pipe.Detector.Threshold() {
			if e, ok := c.target.Get(key); ok && pipe.Identifier != nil && pipe.Identifier.Engine == c.engine.Load() {
				buf := req.TargetBuffer()
				if buf == nil {
					buf = new(core.TargetBuffer) // the request lends none: arrays of its own
				}
				res := decodeTarget(pipe.Identifier.Engine, string(e), buf)
				st.TargetResult = &res
			}
		}
	}

	v, err := pipe.AnalyzeStagedCtx(ctx, req, &st)
	if err != nil {
		return core.Verdict{}, err
	}
	v.ContentKey = key
	if writes {
		if st.Computed&core.StageMaskScore != 0 {
			c.score.Put(key, scoreEntry{score: v.Score})
		}
		if st.Computed&core.StageMaskTarget != 0 {
			if e, ok := c.packEntry(pipe.Identifier.Engine, v.Target); ok {
				c.target.Put(key, e)
			}
		}
	}
	if prov != nil {
		// A stage that ran is computed; one that did not is otherwise.
		of := func(stage core.StageMask, otherwise string) string {
			if st.Computed&stage != 0 {
				return core.ProvComputed
			}
			return otherwise
		}
		*prov = core.MemoProvenance{
			Analysis: of(core.StageMaskAnalysis, ""),
			Features: of(core.StageMaskFeatures, ""),
			Score:    of(core.StageMaskScore, core.ProvMemo),
		}
		if v.TargetRun {
			prov.Target = of(core.StageMaskTarget, core.ProvMemo)
		}
	}
	return v, nil
}

// packEntry packs res, identified against eng, for the target table. It
// reports false, and the result is not memoized, when eng is not the
// coalescer's engine or res does not pack.
func (c *Coalescer) packEntry(eng *search.Engine, res target.Result) (targetEntry, bool) {
	c.engine.CompareAndSwap(nil, eng)
	if eng != c.engine.Load() {
		return "", false
	}
	p, ok := packTarget(eng, res)
	return targetEntry(p), ok
}

// Enabled reports whether the tables hold anything: false for a nil
// Coalescer or one built with negative MemoEntries, where every request
// computes every stage.
func (c *Coalescer) Enabled() bool { return c != nil && c.score != nil }

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
		Score:        c.score.stats(),
		Target:       c.target.stats(),
	}
}
