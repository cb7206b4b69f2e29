package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/obs"
	"knowphish/internal/pool"
	"knowphish/internal/webpage"
)

// The score path. /v1/score, /v2/score, every /v2/score/batch item and
// every /v2/score/stream line are adapters over scorePage: one decoded
// page to one verdict under one worker-slot wait. /v1/score/batch alone
// resolves first and scores second (scoreSnap), because it dedupes
// identical pages in between. Both target endpoints are adapters over
// identifyPage. Every one of them holds its pages borrowed (PageRequest)
// until its response is written, and then releases them.

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
// maps to a 503 via failScore. pri is threaded as an explicit parameter
// — not a context value — to keep the warm path allocation-free.
func (s *Server) boundedCtx(ctx context.Context, pri int, fn func()) error {
	select {
	case s.scoreSem <- struct{}{}:
	case <-ctx.Done():
		return context.Cause(ctx)
	}
	defer func() { <-s.scoreSem }()
	if pri > 0 && pri <= s.cfg.SLO.ShedLevel() {
		return errShed
	}
	fn()
	return nil
}

// scoreHeld scores one request through the stage memo on the caller's
// worker slot — the single scoring step of every endpoint. It returns
// the verdict, whether it was a cache hit, and a context error
// (cancellation, deadline) when scoring was cut short.
//
// A hit is a verdict for which no stage had to run: every result the
// request needs was in the memo. It
// carries no timings and no provenance. Anything partially computed is
// a miss with per-stage provenance in Verdict.Memo. cache_hits /
// cache_misses count exactly those two outcomes for default-mode
// requests; no-memo and refresh requests ask for recomputation, and
// explain requests bypass the memo (evidence is never memoized), so
// neither can hit and neither depresses the rate.
//
// On a traced request the stages that ran become spans, laid end to end
// from the call's start (a hit ran none and records none).
func (s *Server) scoreHeld(ctx context.Context, req core.ScoreRequest, cc coalesce.CacheControl) (core.Verdict, bool, error) {
	var prov core.MemoProvenance
	start := time.Now()
	v, err := s.coal.Do(ctx, s.pipe, req, cc, &prov)
	if err != nil {
		return core.Verdict{}, false, err
	}
	t := &v.Timings
	obs.TraceFrom(ctx).Stages(start, t.AnalyzeNS, t.FeaturesNS, t.ScoreNS, t.TargetNS, t.ExplainNS)
	if prov.Hit() {
		s.metrics.cacheHits.Add(1)
		v.Timings = core.StageTimings{}
		return v, true, nil
	}
	s.metrics.scored.Add(1)
	if v.FinalPhish {
		s.metrics.phish.Add(1)
	}
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

// scoreSnap is scoreHeld behind its own worker-slot wait, for a caller
// that already resolved the page (/v1/score/batch after its dedupe).
func (s *Server) scoreSnap(ctx context.Context, pri int, req core.ScoreRequest, cc coalesce.CacheControl) (v core.Verdict, cached bool, err error) {
	if berr := s.boundedCtx(ctx, pri, func() { v, cached, err = s.scoreHeld(ctx, req, cc) }); berr != nil {
		return core.Verdict{}, false, berr
	}
	return v, cached, err
}

// scorePage takes one decoded page to its verdict document under a
// single worker-slot wait: resolve (HTML parse), content key, scoreHeld.
// The page stays borrowed, and the verdict's target result with it, until
// the caller releases it.
// The error is a badPageError for an unresolvable page, else what cut
// scoring short (deadline, cancellation, errShed).
func (s *Server) scorePage(ctx context.Context, pri int, page *PageRequest, opts []core.ScoreOption, cc coalesce.CacheControl) (resp V2ScoreResponse, err error) {
	if berr := s.boundedCtx(ctx, pri, func() {
		snap, key, rerr := page.resolve()
		if rerr != nil {
			err = rerr
			return
		}
		resp.LandingURL = snap.LandingURL
		req := core.NewScoreRequest(snap, opts...).WithContentKey(key).WithTargetBuffer(page.targetBuffer())
		resp.Verdict, resp.Cached, err = s.scoreHeld(ctx, req, cc)
	}); berr != nil {
		err = berr
	}
	return resp, err
}

// identifyPage resolves one page and runs target identification on it
// under a single worker-slot wait — the path of both target endpoints.
// The deadline budgets identification work, not resolution or time
// queued for the slot, so it starts once the snapshot is in hand — the
// same semantics the score path gets from AnalyzeCtx applying
// WithDeadline inside the slot. ctx is observed between the analysis
// and identification stages.
func (s *Server) identifyPage(ctx context.Context, page *PageRequest, deadline time.Duration) (resp V2TargetResponse, err error) {
	if berr := s.boundedCtx(ctx, prioInteractive, func() {
		var snap *webpage.Snapshot
		if snap, err = page.snapshot(); err != nil {
			return
		}
		resp.LandingURL = snap.LandingURL
		t0 := time.Now()
		ictx := ctx
		if deadline > 0 {
			var cancel context.CancelFunc
			ictx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		a := webpage.Analyze(snap)
		defer a.Release()
		if ictx.Err() != nil {
			err = context.Cause(ictx)
			return
		}
		resp.Result = s.cfg.Identifier.Identify(a)
		resp.ElapsedUS = time.Since(t0).Microseconds()
	}); berr != nil {
		err = berr
	}
	return resp, err
}

// failScore converts a score-path error into a response: a page that
// could not be resolved is the client's 400; an expired per-request
// deadline is a 504 the client can act on; queued work shed by the
// admission controller is a 503 with Retry-After; a cancelled context
// means the client is gone, so nothing is written and the cancellation
// is only counted.
func (s *Server) failScore(w http.ResponseWriter, err error) {
	var bad badPageError
	switch {
	case errors.As(err, &bad):
		s.fail(w, http.StatusBadRequest, bad)
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, errors.New("scoring deadline exceeded"))
	case errors.Is(err, errShed):
		s.shedQueued(w)
	default:
		s.metrics.cancelled.Add(1)
	}
}

// resolveDeadline maps a wire deadline_ms onto the server default.
func (s *Server) resolveDeadline(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// coreOptions validates wire options and resolves them, with the
// server's default deadline, into core functional options plus the
// parsed cache-control mode. It is the single option-validation path of
// the v2 surface; /v2/target calls it too (discarding the scoring
// options) so the endpoints reject the same malformed requests.
//
// The two common request shapes — all options defaulted, with or
// without skip_target — return slices hoisted once in New instead of
// assembling (and allocating) them per request; only requests that
// actually customize an option build a fresh slice.
func (s *Server) coreOptions(o ScoreOptions) ([]core.ScoreOption, coalesce.CacheControl, error) {
	cc, err := coalesce.ParseCacheControl(o.CacheControl)
	if err != nil {
		return nil, cc, err
	}
	if o.DeadlineMS < 0 {
		return nil, cc, fmt.Errorf("negative deadline_ms %d", o.DeadlineMS)
	}
	if o.TopFeatures < 0 {
		return nil, cc, fmt.Errorf("negative top_features %d", o.TopFeatures)
	}
	if o.DeadlineMS == 0 && o.Explain == "" && o.TopFeatures == 0 {
		if o.SkipTarget {
			return s.defaultOptsSkip, cc, nil
		}
		return s.defaultOpts, cc, nil
	}
	level, err := core.ParseExplainLevel(o.Explain)
	if err != nil {
		return nil, cc, err
	}
	opts := []core.ScoreOption{
		core.WithDeadline(s.resolveDeadline(o.DeadlineMS)),
		core.WithExplain(level),
		core.WithTopFeatures(o.TopFeatures),
	}
	if o.SkipTarget {
		opts = append(opts, core.WithoutTargetID())
	}
	return opts, cc, nil
}

// scoreETag derives the entity tag of a verdict from the page's content
// fingerprint: "<32 hex>-", the same page always carrying the same tag.
// The trailing "-" once preceded a model version; it stays so that tags
// clients already hold still revalidate. A detector positive whose
// target stage did not run (skip_target) is a partial verdict — the
// full pipeline may overturn its final call — and is tagged apart, so
// its tag never earns a 304 on a full request. The tag is built in one allocation, and the
// verdict's ContentFingerprint is set to its stem, so the document and
// the header share it. A verdict without a content key (explain) has
// no tag.
func scoreETag(v *core.Verdict) string {
	if v.ContentKey == (webpage.Key128{}) {
		return ""
	}
	const partial = "+partial"
	h := v.ContentKey.Hex()
	var b strings.Builder
	b.Grow(len(`"-"`) + len(h) + len(partial))
	b.WriteByte('"')
	b.Write(h[:])
	b.WriteByte('-')
	if v.DetectorPhish && !v.TargetRun {
		b.WriteString(partial)
	}
	b.WriteByte('"')
	tag := b.String()
	v.ContentFingerprint = tag[1 : 1+len(h)]
	return tag
}

// spellFingerprint sets the ContentFingerprint of a verdict that is
// about to be rendered without an ETag (a /v2/score/batch item, a
// /v2/score/stream line) from its content key.
func spellFingerprint(v *core.Verdict) {
	if v.ContentKey != (webpage.Key128{}) {
		v.ContentFingerprint = v.ContentKey.String()
	}
}

// etagMatch reports whether an If-None-Match header matches the tag,
// per RFC 9110: a comma-separated candidate list, weak-comparison (the
// W/ prefix is ignored), with "*" matching anything.
func etagMatch(header, etag string) bool {
	if etag == "" {
		return false
	}
	for header != "" {
		var c string
		c, header, _ = strings.Cut(header, ",")
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Single-page endpoints.

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req PageRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer req.release()
	resp, err := s.scorePage(r.Context(), prioInteractive, &req, s.defaultOpts, coalesce.CacheDefault)
	if err != nil {
		s.failScore(w, err)
		return
	}
	s.reply(w, http.StatusOK, ScoreResponse{Outcome: resp.Outcome, LandingURL: resp.LandingURL, Cached: resp.Cached})
}

func (s *Server) handleScoreV2(w http.ResponseWriter, r *http.Request) {
	var req V2ScoreRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer req.release()
	opts, cc, err := s.coreOptions(req.ScoreOptions)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.scorePage(r.Context(), prioInteractive, &req.PageRequest, opts, cc)
	if err != nil {
		s.failScore(w, err)
		return
	}
	if etag := scoreETag(&resp.Verdict); etag != "" {
		w.Header().Set("ETag", etag)
		// 304 only on the default cache mode and for evidence-free
		// verdicts: no-memo/refresh ask for recomputation (the client
		// wants the body), and an explain response carries evidence a
		// bare 304 would withhold.
		if cc == coalesce.CacheDefault && resp.Explanation == nil && etagMatch(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	s.reply(w, http.StatusOK, resp)
}

func (s *Server) handleTarget(w http.ResponseWriter, r *http.Request) {
	var req PageRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer req.release()
	resp, err := s.identifyPage(r.Context(), &req, s.cfg.DefaultDeadline)
	if err != nil {
		s.failScore(w, err)
		return
	}
	s.reply(w, http.StatusOK, TargetResponse{LandingURL: resp.LandingURL, Result: resp.Result})
}

func (s *Server) handleTargetV2(w http.ResponseWriter, r *http.Request) {
	var req V2ScoreRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer req.release()
	if _, _, err := s.coreOptions(req.ScoreOptions); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.identifyPage(r.Context(), &req.PageRequest, s.resolveDeadline(req.DeadlineMS))
	if err != nil {
		s.failScore(w, err)
		return
	}
	s.reply(w, http.StatusOK, resp)
}

// ---------------------------------------------------------------------
// Batch endpoints.

// beginBatch validates a batch's size and resolves its fan-out width,
// the server's worker count capped by the client's workers field. It
// reports ok=false after writing the error response itself.
func (s *Server) beginBatch(w http.ResponseWriter, n, reqWorkers int) (workers int, ok bool) {
	if n == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty batch"))
		return 0, false
	}
	if n > DefaultMaxBatch {
		s.metrics.batchRejected.Add(1)
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds limit %d", n, DefaultMaxBatch))
		return 0, false
	}
	workers = s.cfg.Workers
	if reqWorkers > 0 && reqWorkers < workers {
		workers = reqWorkers
	}
	return workers, true
}

// fanOut runs fn for every index on up to workers goroutines and
// returns what cut the batch short: ctx's own error, or the item errors
// joined in index order. Neither batch wire format has a per-item error
// slot, so one failed item fails the request.
func fanOut(ctx context.Context, n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	if err := pool.ForEachIndexCtx(ctx, n, workers, func(i int) { errs[i] = fn(i) }); err != nil {
		return err
	}
	return errors.Join(errs...)
}

// pageError names the batch position of an unresolvable page, so the
// 400 tells the client which one; any other error passes through.
func pageError(i int, err error) error {
	if err == nil {
		return nil // before bad is declared: errors.As makes it escape
	}
	var bad badPageError
	if errors.As(err, &bad) {
		return badPageError{fmt.Errorf("page %d: %w", i, bad.error)}
	}
	return err
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer releasePages(req.Pages)
	workers, ok := s.beginBatch(w, len(req.Pages), req.Workers)
	if !ok {
		return
	}
	ctx := r.Context()
	// Resolution parses HTML, the dominant pre-scoring cost of a raw-HTML
	// batch, so it fans out under the server-wide bound like scoring does.
	n := len(req.Pages)
	snaps := make([]*webpage.Snapshot, n)
	keys := make([]webpage.Key128, n)
	if err := fanOut(ctx, n, workers, func(i int) (err error) {
		if berr := s.boundedCtx(ctx, prioBatch, func() { snaps[i], keys[i], err = req.Pages[i].resolve() }); berr != nil {
			return berr
		}
		return pageError(i, err)
	}); err != nil {
		s.failScore(w, err)
		return
	}
	// Within-batch dedupe: campaigns funnel many lures to one landing
	// page, so identical pages (one content key) score once per batch
	// and the repeats answer as cache hits. It is the memo's reuse
	// applied before the first copy has been written back, and goes
	// with it: a server whose memo is disabled scores every page.
	// first[i] is the index of the first page with page i's content.
	first := make([]int, n)
	for i := range first {
		first[i] = i
	}
	if s.coal.Enabled() {
		seen := make(map[webpage.Key128]int, n)
		for i, k := range keys {
			if j, dup := seen[k]; dup {
				first[i] = j
			} else {
				seen[k] = i
			}
		}
	}
	results := make([]ScoreResponse, n)
	if err := fanOut(ctx, n, workers, func(i int) error {
		if first[i] != i {
			return nil
		}
		sreq := core.NewScoreRequest(snaps[i], s.defaultOpts...).WithContentKey(keys[i]).WithTargetBuffer(req.Pages[i].targetBuffer())
		v, cached, err := s.scoreSnap(ctx, prioBatch, sreq, coalesce.CacheDefault)
		results[i] = ScoreResponse{Outcome: v.Outcome, LandingURL: snaps[i].LandingURL, Cached: cached}
		return err
	}); err != nil {
		s.failScore(w, err)
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
	s.reply(w, http.StatusOK, BatchResponse{
		Results:   results,
		Count:     n,
		ElapsedUS: time.Since(t0).Microseconds(),
	})
}

// handleScoreBatchV2 is the batch form of /v2/score: the same verdict
// documents (fingerprints, memo provenance, cache semantics), fanned
// out over the worker pool through the shared stage memo. Like v1, a
// deadline or cancellation anywhere fails the whole batch — per-item
// failure isolation is what /v2/score/stream is for.
func (s *Server) handleScoreBatchV2(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req V2BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer releasePages(req.Pages)
	opts, cc, err := s.coreOptions(req.ScoreOptions)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	workers, ok := s.beginBatch(w, len(req.Pages), req.Workers)
	if !ok {
		return
	}
	ctx := r.Context()
	out := make([]V2ScoreResponse, len(req.Pages))
	if err := fanOut(ctx, len(out), workers, func(i int) (err error) {
		out[i], err = s.scorePage(ctx, prioBatch, &req.Pages[i], opts, cc)
		spellFingerprint(&out[i].Verdict)
		return pageError(i, err)
	}); err != nil {
		s.failScore(w, err)
		return
	}
	s.reply(w, http.StatusOK, V2BatchResponse{
		Results:   out,
		Count:     len(out),
		ElapsedUS: time.Since(t0).Microseconds(),
	})
}
