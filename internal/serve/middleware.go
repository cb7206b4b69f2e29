package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"
)

func (s *Server) reply(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Nothing was written yet, so the failure can still be reported
		// as a real error status (pre-pool encoding failed after the
		// header and could only be counted).
		s.metrics.errors.Add(1)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	s.send(w, status, buf.Bytes())
}

// jsonContentType is shared: net/http never writes a header value slice.
var jsonContentType = []string{"application/json"}

// bufferBeforeChunking is net/http's response buffer size
// (bufferBeforeChunkingSize). A response that fits it goes out with a
// Content-Length net/http sets when the handler returns; a longer one
// would go out chunked unless the handler sets the header.
const bufferBeforeChunking = 2048

// send writes a complete JSON document as the response. It sets
// Content-Length only where net/http would not: spelling the header
// costs two allocations.
func (s *Server) send(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	if len(body) > bufferBeforeChunking {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// Headers are gone; nothing to do but count it.
		s.metrics.errors.Add(1)
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.metrics.errors.Add(1)
	s.reply(w, status, errorResponse{Error: err.Error()})
}

// statusRecorder captures the response status so instrumentation can
// tell successful work apart from cheap rejections. The shed mark set
// by writeShed keeps deliberate load-shedding 503s out of SLO
// observation — a controller whose own rejections burned the
// availability budget would never recover.
type statusRecorder struct {
	http.ResponseWriter
	status int
	shed   bool
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the underlying writer so the streaming endpoint's
// per-item flush survives the instrumentation wrapper — embedding only
// the ResponseWriter interface would otherwise hide the real writer's
// Flusher from type assertions.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// recorderPool keeps instrument's status recorders: one per request,
// held until its bookkeeping is done.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

func getRecorder(w http.ResponseWriter) *statusRecorder {
	sr := recorderPool.Get().(*statusRecorder)
	*sr = statusRecorder{ResponseWriter: w, status: http.StatusOK}
	return sr
}

func (sr *statusRecorder) release() {
	sr.ResponseWriter = nil
	recorderPool.Put(sr)
}

// slowLogSample is the slow-request log sampling interval: the first
// slow request and every slowLogSample-th after it are logged.
const slowLogSample = 8

// instrument wraps a handler with request counting and, when the class
// carries a histogram, latency capture into it — the one place a
// request's latency is observed. Only successful
// responses are observed: microsecond-cheap 4xx rejections would
// otherwise drag the percentiles operators alert on toward zero.
//
// It is also the admission boundary: a request whose class fails the
// shed check is rejected here with a 503 before any work, and the SLO
// seam: completed requests (except shed ones and vanished clients)
// feed the error-budget engine under the class's endpoint name.
//
// It is also the tracing seam: with a tracer configured, every request
// gets a trace attached to its context (rooted in the caller's
// traceparent header when one is sent), the response echoes the
// server's traceparent, 5xx responses mark the trace failed, and
// requests past the slow threshold are logged — sampled, with their
// trace id, so an operator can jump from a log line straight to the
// retained trace in /debug/traces.
func (s *Server) instrument(h http.HandlerFunc, cls *endpointClass) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		s.metrics.requests.Add(1)
		if cls.priority != prioOps { // a scrape must not count itself
			s.metrics.inFlight.Add(1)
			defer s.metrics.inFlight.Add(-1)
		}
		rec := getRecorder(w)
		if !s.admit(cls) {
			s.shedClass(rec, cls)
			rec.release()
			return
		}
		// Spelled canonically: Get would allocate the canonical key.
		ctx, tr := s.cfg.Tracer.StartRequest(r.Context(), r.URL.Path, r.Header.Get("Traceparent"))
		if tr != nil {
			rec.Header().Set("Traceparent", tr.Traceparent())
			r = r.WithContext(ctx)
		}
		h(rec, r)
		dur := time.Since(t0)
		if tr != nil {
			if rec.status >= 500 {
				tr.SetError()
			}
			// The slow log reads the trace before Finish returns it to
			// the pool.
			if slow := s.cfg.Tracer.SlowThreshold(); slow > 0 && dur >= slow {
				if n := s.slowSeen.Add(1); n == 1 || n%slowLogSample == 0 {
					s.cfg.Logger.Warn("slow request",
						"path", r.URL.Path,
						"status", rec.status,
						"dur_ms", dur.Milliseconds(),
						"trace_id", tr.TraceID(),
						"sampled_1_in", slowLogSample)
				}
			}
			s.cfg.Tracer.Finish(tr)
		}
		// Cancelled requests wrote nothing (status stays 200) but their
		// elapsed time is time-until-the-server-noticed, not a service
		// latency — exclude them like error responses.
		if rec.status < 400 && r.Context().Err() == nil {
			cls.window.Observe(dur)
		}
		// Feed the error-budget engine: every completed response is an
		// SLI event — good, or bad (5xx, or over the latency target; the
		// engine decides). Shed 503s and vanished clients are excluded;
		// see writeShed for why sheds must not burn the budget.
		if !rec.shed && r.Context().Err() == nil {
			s.cfg.SLO.Observe(cls.name, dur, rec.status >= 500)
		}
		rec.release()
	}
}

// post restricts a handler to POST requests.
func (s *Server) post(h http.HandlerFunc) http.HandlerFunc {
	return s.allowMethod(http.MethodPost, h)
}

// get restricts a handler to GET (and HEAD) requests.
func (s *Server) get(h http.HandlerFunc) http.HandlerFunc {
	return s.allowMethod(http.MethodGet, h)
}

func (s *Server) allowMethod(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			s.fail(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
			return
		}
		h(w, r)
	}
}
