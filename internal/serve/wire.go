package serve

import (
	"bytes"
	"errors"
	"sync"

	"knowphish/internal/core"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// PageRequest describes one page to score: either a full snapshot, or
// raw HTML plus visit metadata (converted with webpage.BorrowHTML).
//
// A page request borrows for the life of its request, under the page
// lifetime rule of package htmlx. Its html may be a view of the body
// buffer it was decoded from (decodeDoc), and the snapshot an html
// request resolves to is a webpage.Page whose strings are views of
// pooled parser storage and of that html. It also lends the memo a
// pooled core.TargetBuffer, which the verdict's target result aliases
// on a memo hit. The handler calls release once the response that reads
// them is written; nothing the server keeps past that reads any of them
// (the memo keeps content keys and packed target results, never
// snapshot strings).
type PageRequest struct {
	Snapshot *webpage.Snapshot `json:"snapshot,omitempty"`

	HTML             string   `json:"html,omitempty"`
	StartingURL      string   `json:"starting_url,omitempty"`
	LandingURL       string   `json:"landing_url,omitempty"`
	RedirectionChain []string `json:"redirection_chain,omitempty"`

	body   *bytes.Buffer      // the pooled buffer HTML may view
	page   *webpage.Page      // the borrowed snapshot of an html request
	target *core.TargetBuffer // lent to the memo for a hit's target result
}

// targetPool holds the target buffers page requests lend the memo.
var targetPool = sync.Pool{New: func() any { return new(core.TargetBuffer) }}

// targetBuffer returns the storage the request lends the memo for a
// hit's target result, taking it from targetPool on first use.
func (p *PageRequest) targetBuffer() *core.TargetBuffer {
	if p.target == nil {
		p.target = targetPool.Get().(*core.TargetBuffer)
	}
	return p.target
}

// release ends the request's borrows, handing its page, its body
// buffer and its target buffer back to their pools. After it nothing may
// read the request's html, its snapshot or its verdict's target result.
// The target buffer's strings are cleared first, so a verdict read too
// late shows empty terms rather than another page's, and a pooled
// buffer keeps no evicted entry alive.
func (p *PageRequest) release() {
	if p.target != nil {
		clear(p.target.Candidates[:cap(p.target.Candidates)])
		clear(p.target.Terms[:cap(p.target.Terms)])
		targetPool.Put(p.target)
		p.target = nil
	}
	if p.page != nil {
		p.page.Release()
		p.page = nil
	}
	if p.body != nil {
		putBuf(p.body)
		p.body = nil
	}
}

// releasePages releases every page of a batch.
func releasePages(pages []PageRequest) {
	for i := range pages {
		pages[i].release()
	}
}

// badPageError marks a page that could not be resolved to a snapshot —
// the client's mistake (a 400, or a per-item error on the stream), as
// opposed to a context error that cut scoring short.
type badPageError struct{ error }

// snapshot resolves the request to a Snapshot, borrowed until release
// for an html request; its errors are badPageErrors.
func (p *PageRequest) snapshot() (*webpage.Snapshot, error) {
	if p.Snapshot != nil {
		if p.HTML != "" || p.StartingURL != "" || p.LandingURL != "" || len(p.RedirectionChain) > 0 {
			// The URLs would be silently ignored in favor of the
			// snapshot's embedded ones; reject rather than mislead.
			return nil, badPageError{errors.New("snapshot requests must not also set html, starting_url, landing_url or redirection_chain")}
		}
		if p.Snapshot.StartingURL == "" && p.Snapshot.LandingURL == "" {
			return nil, badPageError{errors.New("snapshot missing starting_url and landing_url")}
		}
		return p.Snapshot, nil
	}
	if p.HTML == "" {
		return nil, badPageError{errors.New("missing snapshot or html")}
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
		return nil, badPageError{errors.New("html requests need starting_url or landing_url")}
	}
	p.page = webpage.BorrowHTML(start, land, p.RedirectionChain, p.HTML)
	return &p.page.Snapshot, nil
}

// resolve is the resolution step of the score path: the snapshot to
// score plus its content identity. It parses HTML and hashes the page —
// CPU work the caller holds a worker slot for.
func (p *PageRequest) resolve() (*webpage.Snapshot, webpage.Key128, error) {
	snap, err := p.snapshot()
	if err != nil {
		return nil, webpage.Key128{}, err
	}
	return snap, webpage.ContentKey(snap), nil
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

// ScoreOptions are the per-request knobs of the v2 scoring surface,
// shared by /v2/score, /v2/score/batch, /v2/target and every
// /v2/score/stream item.
type ScoreOptions struct {
	// DeadlineMS caps the scoring work for this request in
	// milliseconds (0 → the server's default deadline). The budget
	// covers pipeline stages, not time queued for a worker slot.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Explain selects evidence: "none" (or absent), "top" or "full".
	Explain string `json:"explain,omitempty"`
	// TopFeatures caps a "top" explanation's contribution count
	// (0 → core.DefaultTopFeatures).
	TopFeatures int `json:"top_features,omitempty"`
	// SkipTarget skips target identification even for detector
	// positives: cheaper, raw detector call only.
	SkipTarget bool `json:"skip_target,omitempty"`
	// CacheControl selects how the request interacts with the score and
	// target memo tables: "default" (or absent) reads and writes, "no-memo"
	// neither reads nor writes, "refresh" recomputes every stage and
	// overwrites — the forced revalidation.
	CacheControl string `json:"cache_control,omitempty"`
}

// V2ScoreRequest is one page plus its scoring options.
type V2ScoreRequest struct {
	PageRequest
	ScoreOptions
}

// V2ScoreResponse is the rich verdict document of the v2 surface.
type V2ScoreResponse struct {
	core.Verdict
	// LandingURL identifies the scored page.
	LandingURL string `json:"landing_url,omitempty"`
	// Cached reports whether the verdict was reused rather than
	// freshly computed (cached verdicts carry no timings or evidence;
	// request an explanation to force a fresh computation).
	Cached bool `json:"cached"`
}

// V2TargetResponse is the target identification document of the v2
// surface.
type V2TargetResponse struct {
	LandingURL string        `json:"landing_url,omitempty"`
	Result     target.Result `json:"result"`
	// ElapsedUS is the identification wall time.
	ElapsedUS int64 `json:"elapsed_us"`
}

// V2BatchRequest scores many pages in one call on the v2 surface. The
// embedded options apply to every page.
type V2BatchRequest struct {
	Pages []PageRequest `json:"pages"`
	ScoreOptions
	// Workers optionally lowers the fan-out for this request; it is
	// capped by the server's worker limit.
	Workers int `json:"workers,omitempty"`
}

// V2BatchResponse carries per-page verdict documents in request order.
type V2BatchResponse struct {
	Results   []V2ScoreResponse `json:"results"`
	Count     int               `json:"count"`
	ElapsedUS int64             `json:"elapsed_us"`
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
// null, exactly as v1 always has. Clients decode into it; the server
// writes the same bytes without building one (serveVerdicts splices the
// stored documents; TestVerdictsSpliceMatchesMarshal holds the two
// renderings equal), and so for VerdictsPageResponse.
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

type errorResponse struct {
	Error string `json:"error"`
}
