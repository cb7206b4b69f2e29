package serve

import (
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"knowphish/internal/obs"
)

// Adaptive admission control: when the SLO engine's fast-window burn
// crosses its thresholds, the server sheds work instead of letting the
// queue collapse — lowest-value work first. Every route belongs to an
// endpointClass carrying a shed priority; the engine's shed level L
// rejects every class with 0 < priority <= L, so background feed
// ingestion goes first, batch/stream/verdict queries second, and
// interactive single-page scoring only at the highest level. The ops
// surfaces (healthz, metrics, debug) are priority 0 and never shed: an
// overloaded server must stay observable, or no one can see what it
// sheds.
//
// Shedding happens at two boundaries. The entry check in instrument
// rejects before any work. The re-check inside boundedCtx converts
// work that was admitted earlier but is still queued for a worker slot
// — under overload, queue delay is exactly what busts the latency SLO,
// so completing stale queued work late would poison the accepted-
// request percentiles the controller exists to protect.
//
// Shed responses are 503 with a Retry-After and are excluded from SLO
// observation and the latency histograms: a controller whose own
// rejections burned the availability budget would never recover.

// Shed priorities. Higher = more valuable = shed later.
const (
	prioOps         = 0 // never shed
	prioFeed        = 1 // background ingestion: first to go
	prioBatch       = 2 // batch, stream, verdict queries
	prioInteractive = 3 // single-page score/target: last to go
)

// errShed is returned by boundedCtx when queued work was shed at the
// worker-slot boundary; failScore maps it onto the 503 surface.
var errShed = errors.New("shed: server over its error-budget burn threshold")

// endpointClass groups routes for admission control and latency: its
// name is the SLO endpoint label, its priority the shed order, its
// window the since-boot and "p99 right now" source for /metrics and
// kptop.
type endpointClass struct {
	name     string
	priority int
	// window is the class's latency histogram (nil for the classes
	// excluded from the latency percentiles: stream, ops).
	window *obs.WindowedHist
	// shed counts requests this class rejected at the entry check.
	shed atomic.Int64
}

// newClass registers an endpoint class on the server. Classes are
// created once in New and shared by every route they cover (v1 and v2
// score land in the same "score" class).
func (s *Server) newClass(name string, priority int, windowed bool) *endpointClass {
	c := &endpointClass{name: name, priority: priority}
	if windowed {
		c.window = obs.NewWindowedHist(s.cfg.Clock)
	}
	s.classes = append(s.classes, c)
	return c
}

// shedClass writes the 503 shed response for an entry-check rejection.
func (s *Server) shedClass(w http.ResponseWriter, cls *endpointClass) {
	cls.shed.Add(1)
	s.metrics.shedTotal.Add(1)
	s.writeShed(w)
}

// shedQueued writes the 503 for work shed at the worker-slot boundary
// (boundedCtx returned errShed after the entry check admitted it).
func (s *Server) shedQueued(w http.ResponseWriter) {
	s.metrics.shedQueued.Add(1)
	s.metrics.shedTotal.Add(1)
	s.writeShed(w)
}

// writeShed renders the shed 503: Retry-After tells well-behaved
// clients when the burn can plausibly have decayed, and the shed mark
// on the status recorder keeps the response out of SLO observation.
// Deliberate shedding is not an error, so metrics.errors is untouched
// — the shed counters are the signal.
func (s *Server) writeShed(w http.ResponseWriter) {
	if sr, ok := w.(*statusRecorder); ok {
		sr.shed = true
	}
	retry := s.cfg.SLO.RetryAfter()
	if retry <= 0 {
		retry = 30 * time.Second
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
	s.reply(w, http.StatusServiceUnavailable, errorResponse{
		Error: "overloaded: request shed to protect the service SLO; retry after the indicated backoff",
	})
}

// admit reports whether a class passes admission at the current shed
// level. One atomic load on the accept path — this is the check
// TestAdmitAllocs pins at zero allocations.
func (s *Server) admit(cls *endpointClass) bool {
	return cls.priority == 0 || cls.priority > s.cfg.SLO.ShedLevel()
}
