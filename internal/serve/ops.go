package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"knowphish/internal/obs"
)

// Metrics returns a snapshot of the serving counters, including feed
// and store stats when those subsystems are wired in.
func (s *Server) Metrics() MetricsSnapshot {
	snap := s.metrics.Snapshot()
	all, batch := s.latency()
	snap.LatencyMeanUS = all.Mean()
	snap.LatencyP50US = all.Percentile(50)
	snap.LatencyP90US = all.Percentile(90)
	snap.LatencyP99US = all.Percentile(99)
	snap.BatchLatencyMeanUS = batch.Mean()
	snap.BatchLatencyP99US = batch.Percentile(99)
	if s.cfg.Feed != nil {
		fs := s.cfg.Feed.Stats()
		snap.Feed = &fs
	}
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		snap.Store = &ss
	}
	cs := s.coal.Snapshot()
	snap.Coalesce = &cs
	if s.cfg.Tracer != nil {
		ts := s.cfg.Tracer.Summary()
		snap.Tracing = &ts
	}
	snap.Endpoints = make(map[string]EndpointMetrics, len(s.classes))
	for _, c := range s.classes {
		em := EndpointMetrics{Priority: c.priority, Shed: c.shed.Load()}
		if c.window != nil {
			em.Windows = c.window.Summaries()
		}
		snap.Endpoints[c.name] = em
	}
	snap.Shed = ShedMetrics{
		Total:  s.metrics.shedTotal.Load(),
		Queued: s.metrics.shedQueued.Load(),
		Level:  s.cfg.SLO.ShedLevel(),
	}
	if s.cfg.SLO != nil {
		st := s.cfg.SLO.Status()
		snap.SLO = &st
	}
	return snap
}

// latency reads the since-boot request latency: all merges every class
// with a histogram, batch is the batch class's own.
func (s *Server) latency() (all, batch obs.HistSnapshot) {
	for _, c := range s.classes {
		all.Merge(c.window.SinceBoot())
	}
	return all, s.batch.window.SinceBoot()
}

// buildGoVersion / buildVCSRevision are read once at startup; every
// /healthz response reuses them.
var buildGoVersion, buildVCSRevision = readBuildInfo()

func readBuildInfo() (goVersion, revision string) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return runtime.Version(), ""
	}
	goVersion = info.GoVersion
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return goVersion, revision
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		GoVersion:     buildGoVersion,
		VCSRevision:   buildVCSRevision,
		Threshold:     s.cfg.Detector.Threshold(),
		Workers:       s.cfg.Workers,
		CacheEnabled:  s.coal.Enabled(),
		FeedEnabled:   s.cfg.Feed != nil,
		StoreEnabled:  s.cfg.Store != nil,
	}
	if s.cfg.SLO != nil {
		resp.SLOState = s.cfg.SLO.State().String()
		resp.ShedLevel = s.cfg.SLO.ShedLevel()
	}
	s.reply(w, http.StatusOK, resp)
}

// handleMetrics serves the metrics snapshot. JSON is the frozen default
// (pinned by goldens); ?format=prometheus switches to the text
// exposition format for scrapers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		s.reply(w, http.StatusOK, s.Metrics())
	case "prometheus":
		s.writePrometheus(w)
	default:
		s.fail(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (want json or prometheus)", format))
	}
}

// handleDebugTraces serves the tracer's retained traces: the recent
// ring, the slow/error exemplar reservoir and the per-stage summaries.
// Without a tracer it answers an empty document rather than 404, so
// dashboards can poll unconditionally.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, s.cfg.Tracer.Snapshot())
}

// handleDebugSLO serves the error-budget engine's full status: per-
// objective state, fast/slow burn rates, budget remaining and the
// active shed level. Without an engine it answers the empty "ok"
// document, so dashboards (kptop) can poll unconditionally.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, s.cfg.SLO.Status())
}

// eventsResponse is the /debug/events document: the retained ring of
// operational events, newest first, plus the all-time count (total >
// len(events) means older events were evicted).
type eventsResponse struct {
	Events []obs.Event `json:"events"`
	Total  uint64      `json:"total"`
}

// handleDebugEvents serves the operational event journal: SLO
// transitions and shed-level changes. Without a journal it answers an
// empty document rather than 404.
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, eventsResponse{Events: s.cfg.Journal.Events(), Total: s.cfg.Journal.Total()})
}
