package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"knowphish/internal/pool"
)

// V2StreamResult is one NDJSON line of a /v2/score/stream response:
// the item's position in the request stream plus either its verdict or
// a per-item error. Items complete out of order; clients reassemble by
// Index.
type V2StreamResult struct {
	// Index is the item's zero-based line number in the request body.
	Index int `json:"index"`
	*V2ScoreResponse
	// Error reports a per-item failure (malformed line, unresolvable
	// page, expired per-item deadline) without ending the stream.
	Error string `json:"error,omitempty"`
}

// streamItem is one parsed request line awaiting scoring.
type streamItem struct {
	req      V2ScoreRequest
	parseErr error
}

// handleScoreStream scores an NDJSON stream: one V2ScoreRequest per
// line in, one V2StreamResult per line out, flushed as each item
// completes. Items fan out over the server's worker pool (bounded by
// the server-wide scoring semaphore), each under its own deadline, and
// the whole stream rides the request context — when the client
// disconnects, unstarted items are never scored and the handler
// returns at the next item boundary.
func (s *Server) handleScoreStream(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	items, ok := s.readStreamItems(w, r)
	if !ok {
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	results := make(chan V2StreamResult)
	go func() {
		defer close(results)
		_ = pool.ForEachIndexCtx(ctx, len(items), s.cfg.Workers, func(i int) {
			res := s.scoreStreamItem(ctx, i, &items[i])
			select {
			case results <- res:
			case <-ctx.Done():
			}
		})
	}()
	// Each line is encoded into a reused buffer and written in one call:
	// the encoder's working memory amortizes across the stream instead
	// of being re-grown per item, and the transport sees whole lines.
	buf := getBuf()
	enc := json.NewEncoder(buf)
	for res := range results {
		buf.Reset()
		err := enc.Encode(res)
		if err == nil {
			_, err = w.Write(buf.Bytes())
		}
		// The line is written, or never will be: nothing reads the
		// item's page any more.
		items[res.Index].req.release()
		if err != nil {
			// On a write error the connection is gone; ctx cancellation
			// is already stopping the producers. Keep draining so they
			// never block.
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
		s.metrics.streamed.Add(1)
	}
	putBuf(buf)
	// Every producer has returned; an item a cancelled stream never
	// answered may still hold its page.
	for i := range items {
		items[i].req.release()
	}
	if ctx.Err() != nil {
		s.metrics.cancelled.Add(1)
	}
}

// readStreamItems parses the NDJSON request body up to the batch item
// limit. It reports ok=false after writing the error response itself.
func (s *Server) readStreamItems(w http.ResponseWriter, r *http.Request) ([]streamItem, bool) {
	body := http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
	sc := bufio.NewScanner(body)
	// A single line may carry a full snapshot; let it grow to the body
	// limit rather than bufio's 64 KiB default.
	sc.Buffer(make([]byte, 64<<10), DefaultMaxBodyBytes)

	var items []streamItem
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if len(items) >= DefaultMaxBatch {
			s.metrics.batchRejected.Add(1)
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("stream exceeds the %d-item limit", DefaultMaxBatch))
			return nil, false
		}
		var it streamItem
		// A malformed line becomes a per-item error in the response
		// stream; killing the whole stream for one bad line would throw
		// away every good item behind it.
		it.parseErr = decodeDoc(line, &it.req)
		// The html may be a view of line, which the scanner reuses.
		it.req.HTML = strings.Clone(it.req.HTML)
		items = append(items, it)
	}
	if err := sc.Err(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", DefaultMaxBodyBytes))
		} else {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("reading stream: %w", err))
		}
		return nil, false
	}
	if len(items) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty stream"))
		return nil, false
	}
	return items, true
}

// scoreStreamItem runs one stream item through scorePage,
// folding every per-item failure into the result line.
func (s *Server) scoreStreamItem(ctx context.Context, idx int, it *streamItem) V2StreamResult {
	res := V2StreamResult{Index: idx}
	if it.parseErr != nil {
		res.Error = fmt.Sprintf("decoding item: %v", it.parseErr)
		return res
	}
	opts, cc, err := s.coreOptions(it.req.ScoreOptions)
	var resp V2ScoreResponse
	if err == nil {
		resp, err = s.scorePage(ctx, prioBatch, &it.req.PageRequest, opts, cc)
	}
	switch {
	case err == nil:
		spellFingerprint(&resp.Verdict)
		res.V2ScoreResponse = &resp
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
		// This item ran out of its own budget; the stream lives on.
		res.Error = "scoring deadline exceeded"
	default:
		res.Error = err.Error()
	}
	return res
}
