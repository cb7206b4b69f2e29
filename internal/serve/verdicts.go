package serve

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"knowphish/internal/feed"
	"knowphish/internal/store"
)

// The feed and store endpoints: URLs in through POST /v1/feed, their
// verdicts out through GET /v1/verdicts and /v2/verdicts.

// handleFeed enqueues URLs. Each URL is accepted or rejected
// independently; rejection reasons surface the scheduler's backpressure
// to the feed producer so it can slow down or retry later.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Feed == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("feed ingestion is not configured on this server"))
		return
	}
	var req FeedRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.URLs) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty urls list"))
		return
	}
	if len(req.URLs) > DefaultMaxBatch {
		s.metrics.batchRejected.Add(1)
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("feed of %d URLs exceeds limit %d", len(req.URLs), DefaultMaxBatch))
		return
	}
	resp := FeedResponse{Results: make([]FeedResult, len(req.URLs))}
	for i, u := range req.URLs {
		res := FeedResult{URL: u}
		if err := s.cfg.Feed.Enqueue(u); err != nil {
			res.Reason = feedReason(err)
			resp.Rejected++
		} else {
			res.Accepted = true
			resp.Accepted++
		}
		resp.Results[i] = res
	}
	resp.QueueDepth = s.cfg.Feed.Stats().Depth
	s.reply(w, http.StatusOK, resp)
}

// feedReason maps scheduler rejections to stable wire strings.
func feedReason(err error) string {
	switch {
	case errors.Is(err, feed.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, feed.ErrDuplicate):
		return "duplicate"
	case errors.Is(err, feed.ErrInvalidURL):
		return "invalid_url"
	case errors.Is(err, feed.ErrClosed):
		return "closed"
	default:
		return err.Error()
	}
}

// parseVerdictQuery builds a store.Query from request parameters. The
// v1 and v2 verdict endpoints share the core filters (target, url,
// since, phish_only, limit); the v2 surface adds until and the
// pagination cursor. v1 ignores parameters it does not know; v2 refuses
// model_version and source, filters it no longer has, since answering
// unfiltered would widen what the client asked for.
func parseVerdictQuery(r *http.Request, v2 bool) (store.Query, error) {
	p := r.URL.Query()
	q := store.Query{
		Target: p.Get("target"),
		URL:    p.Get("url"),
		Limit:  DefaultVerdictsLimit,
	}
	if v := p.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return q, fmt.Errorf("invalid since %q: want RFC3339", v)
		}
		q.Since = t
	}
	if v := p.Get("phish_only"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return q, fmt.Errorf("invalid phish_only %q", v)
		}
		q.PhishOnly = b
	}
	if v := p.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > MaxVerdictsLimit {
			return q, fmt.Errorf("invalid limit %q: want 1..%d", v, MaxVerdictsLimit)
		}
		q.Limit = n
	}
	if !v2 {
		return q, nil
	}
	for _, name := range [...]string{"model_version", "source"} {
		if p.Has(name) {
			return q, fmt.Errorf("unsupported filter %s: verdict records carry none", name)
		}
	}
	q.Cursor = p.Get("cursor")
	if v := p.Get("until"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return q, fmt.Errorf("invalid until %q: want RFC3339", v)
		}
		q.Until = t
	}
	return q, nil
}

// scanFail maps a store.Backend.Scan error onto the HTTP surface.
func (s *Server) scanFail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, store.ErrBadCursor):
		s.fail(w, http.StatusBadRequest, err)
	case errors.Is(err, store.ErrClosed):
		s.fail(w, http.StatusServiceUnavailable, err)
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}

// handleVerdicts queries the verdict store with the frozen v1 wire
// format — the same Scan and the same writer /v2/verdicts uses, minus
// pagination:
//
//	GET /v1/verdicts?target=brand.com&since=2026-07-29T00:00:00Z
//	GET /v1/verdicts?url=http://lure.test/&phish_only=true&limit=50
func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	s.serveVerdicts(w, r, false)
}

// handleVerdictsV2 queries the verdict store with cursor pagination:
//
//	GET /v2/verdicts?target=brand.com&limit=50
//	GET /v2/verdicts?phish_only=true&since=2026-07-01T00:00:00Z&until=2026-08-01T00:00:00Z
//	GET /v2/verdicts?cursor=<next_cursor from the previous page>
func (s *Server) handleVerdictsV2(w http.ResponseWriter, r *http.Request) {
	s.serveVerdicts(w, r, true)
}

// verdictBufs is the storage one verdict page is served from: the
// frames the store reads the page into, the payloads aliasing them, and
// the body the envelope is written into.
type verdictBufs struct {
	page store.ScanPage
	body []byte
}

// verdictPool recycles verdictBufs across verdict pages, and only
// there: a page's buffers are page-sized (a default 100-record page is
// about 20 KB), and the score responses that share bufPool are a few
// hundred bytes.
var verdictPool = sync.Pool{New: func() any { return new(verdictBufs) }}

// putVerdictBufs returns vb to the pool unless a buffer grew past
// maxPooledBuf, as putBuf does: a limit=1000 page must not pin
// megabytes in the pool.
func putVerdictBufs(vb *verdictBufs) {
	if cap(vb.page.Frames) > maxPooledBuf || cap(vb.body) > maxPooledBuf {
		return
	}
	verdictPool.Put(vb)
}

// serveVerdicts answers both verdict endpoints. The store hands back
// each matching record as the JSON document it holds, which is the
// document the API emits, so the page is spliced into the envelope as
// bytes: what a client reads is VerdictsResponse (v1) or
// VerdictsPageResponse (v2) exactly as json.Encoder would render it,
// without a Record ever being built. v1 renders an empty result as
// null and never carries a cursor; v2 renders it as [] — both pinned
// by goldens. The frames and the body live in pooled buffers, which go
// back to the pool only once the body is written.
func (s *Server) serveVerdicts(w http.ResponseWriter, r *http.Request, v2 bool) {
	if s.cfg.Store == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("verdict store is not configured on this server"))
		return
	}
	q, err := parseVerdictQuery(r, v2)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	vb := verdictPool.Get().(*verdictBufs)
	defer putVerdictBufs(vb)
	vb.page, err = s.cfg.Store.AppendScan(r.Context(),
		store.ScanPage{Payloads: vb.page.Payloads[:0], Frames: vb.page.Frames[:0]}, q)
	if err != nil {
		s.scanFail(w, err)
		return
	}
	page := vb.page
	size := 64 + len(page.NextCursor) // the envelope around the records
	for _, p := range page.Payloads {
		size += len(p) + 1
	}
	body := slices.Grow(vb.body[:0], size)
	body = append(body, `{"records":`...)
	if len(page.Payloads) == 0 && !v2 {
		body = append(body, "null"...)
	} else {
		body = append(body, '[')
		for i, p := range page.Payloads {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, p...)
		}
		body = append(body, ']')
	}
	body = append(body, `,"count":`...)
	body = strconv.AppendInt(body, int64(len(page.Payloads)), 10)
	if v2 && page.NextCursor != "" {
		// A cursor is "s1-" and base-36 digits: nothing JSON escapes.
		body = append(body, `,"next_cursor":"`...)
		body = append(body, page.NextCursor...)
		body = append(body, '"')
	}
	body = append(body, "}\n"...)
	vb.body = body
	s.send(w, http.StatusOK, body)
}
