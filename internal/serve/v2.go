package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// ScoreOptions are the per-request knobs of the v2 scoring surface,
// shared by /v2/score, /v2/score/batch, /v2/target and every
// /v2/score/stream item.
type ScoreOptions struct {
	// DeadlineMS caps the scoring work for this request in
	// milliseconds (0 → the server's default deadline). The budget
	// covers pipeline stages, not time queued for a worker slot.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Explain selects evidence: "none", "top" or "full"
	// ("" → the server's default level).
	Explain string `json:"explain,omitempty"`
	// TopFeatures caps a "top" explanation's contribution count
	// (0 → the server's default).
	TopFeatures int `json:"top_features,omitempty"`
	// SkipTarget skips target identification even for detector
	// positives: cheaper, raw detector call only.
	SkipTarget bool `json:"skip_target,omitempty"`
	// CacheControl selects how the request interacts with the per-stage
	// memo tables: "default" (or absent) reads and writes, "no-memo"
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

// resolveDeadline maps a wire deadline_ms onto the server default.
func (s *Server) resolveDeadline(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.defaultDeadline
}

// coreOptions validates wire options and resolves them against the
// server defaults into core functional options plus the parsed
// cache-control mode. It is the single option-validation path of the
// v2 surface; /v2/target calls it too (discarding the scoring options)
// so the endpoints reject the same malformed requests.
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
	deadline := s.resolveDeadline(o.DeadlineMS)
	level := s.defaultExplain
	if o.Explain != "" {
		if level, err = core.ParseExplainLevel(o.Explain); err != nil {
			return nil, cc, err
		}
	}
	topN := o.TopFeatures
	if topN == 0 {
		topN = s.explainTopN
	}
	opts := []core.ScoreOption{
		core.WithDeadline(deadline),
		core.WithExplain(level),
		core.WithTopFeatures(topN),
	}
	if o.SkipTarget {
		opts = append(opts, core.WithoutTargetID())
	}
	return opts, cc, nil
}

// scoreETag derives the entity tag of a verdict: the page's content
// fingerprint plus the model generation that scored it. The same page
// under the same champion always carries the same tag; a promotion
// changes every tag, so clients revalidate exactly when verdicts can
// change.
func scoreETag(v *core.Verdict) string {
	if v.ContentFingerprint == "" {
		return ""
	}
	return `"` + v.ContentFingerprint + "-" + v.ModelVersion + `"`
}

// etagMatch reports whether an If-None-Match header matches the tag,
// per RFC 9110: a comma-separated candidate list, weak-comparison (the
// W/ prefix is ignored), with "*" matching anything.
func etagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == etag || c == "*" {
			return true
		}
	}
	return false
}

func (s *Server) handleScoreV2(w http.ResponseWriter, r *http.Request) {
	var req V2ScoreRequest
	if !s.decode(w, r, &req) {
		return
	}
	opts, cc, err := s.coreOptions(req.ScoreOptions)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	pipe, err := s.pipeline()
	if err != nil {
		s.fail(w, http.StatusServiceUnavailable, err)
		return
	}
	ctx := r.Context()
	var snap *webpage.Snapshot
	if berr := s.boundedCtx(ctx, prioInteractive, func() { snap, err = req.PageRequest.snapshot() }); berr != nil {
		s.failCtx(w, berr)
		return
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	v, cached, err := s.scoreSnap(ctx, prioInteractive, pipe, core.NewScoreRequest(snap, opts...), cc)
	if err != nil {
		s.failCtx(w, err)
		return
	}
	if etag := scoreETag(&v); etag != "" {
		w.Header().Set("ETag", etag)
		// 304 only on the default cache mode and for evidence-free
		// verdicts: no-memo/refresh ask for recomputation (the client
		// wants the body), and an explain response carries evidence a
		// bare 304 would withhold.
		if cc == coalesce.CacheDefault && v.Explanation == nil && etagMatch(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	s.reply(w, http.StatusOK, V2ScoreResponse{Verdict: v, LandingURL: snap.LandingURL, Cached: cached})
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
	opts, cc, err := s.coreOptions(req.ScoreOptions)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	pipe, workers, ok := s.beginBatch(w, len(req.Pages), req.Workers)
	if !ok {
		return
	}
	ctx := r.Context()
	snaps, ok := s.resolvePages(ctx, w, req.Pages, workers, nil)
	if !ok {
		return
	}
	out := make([]V2ScoreResponse, len(snaps))
	if err := fanOut(ctx, len(snaps), workers, func(i int) error {
		v, cached, err := s.scoreSnap(ctx, prioBatch, pipe, core.NewScoreRequest(snaps[i], opts...), cc)
		out[i] = V2ScoreResponse{Verdict: v, LandingURL: snaps[i].LandingURL, Cached: cached}
		return err
	}); err != nil {
		s.failCtx(w, err)
		return
	}
	s.metrics.scoreBatch.Observe(time.Since(t0))
	s.reply(w, http.StatusOK, V2BatchResponse{
		Results:   out,
		Count:     len(out),
		ElapsedUS: time.Since(t0).Microseconds(),
	})
}

func (s *Server) handleTargetV2(w http.ResponseWriter, r *http.Request) {
	var req V2ScoreRequest
	if !s.decode(w, r, &req) {
		return
	}
	if _, _, err := s.coreOptions(req.ScoreOptions); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var snap *webpage.Snapshot
	var err error
	if berr := s.boundedCtx(ctx, prioInteractive, func() { snap, err = req.PageRequest.snapshot() }); berr != nil {
		s.failCtx(w, berr)
		return
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	t0 := time.Now()
	res, err := s.identify(ctx, prioInteractive, snap, s.resolveDeadline(req.DeadlineMS))
	if err != nil {
		s.failCtx(w, err)
		return
	}
	s.reply(w, http.StatusOK, V2TargetResponse{
		LandingURL: snap.LandingURL,
		Result:     res,
		ElapsedUS:  time.Since(t0).Microseconds(),
	})
}
