package serve

import (
	"maps"
	"net/http"
	"slices"

	"knowphish/internal/coalesce"
	"knowphish/internal/obs"
)

// writePrometheus renders the metrics surface in the Prometheus text
// exposition format (version 0.0.4). Every value the JSON document at
// /metrics carries comes from one Metrics snapshot, so the two formats
// read the same numbers; the exposition adds only what the document
// summarizes — the request and per-stage latency histograms — and the
// Go runtime metrics. JSON stays the default; this is
// ?format=prometheus.
//
// Naming follows Prometheus conventions: monotonically increasing
// values are *_total counters, point-in-time values are gauges, and
// latencies are *_seconds histograms. Labelled samples are sorted by
// label value so the exposition is byte-stable between scrapes.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", obs.PromContentType)
	p := obs.NewPromWriter(w)
	m := s.Metrics()

	// Serving counters.
	p.Gauge("knowphish_uptime_seconds", "Seconds since the server started.", m.UptimeSeconds)
	p.Counter("knowphish_http_requests_total", "HTTP requests received.", float64(m.Requests))
	p.Counter("knowphish_pages_scored_total", "Pages scored (batch items counted singly).", float64(m.PagesScored))
	p.Counter("knowphish_phish_verdicts_total", "Pages with a final phishing verdict.", float64(m.PhishVerdicts))
	p.Counter("knowphish_http_errors_total", "4xx/5xx responses.", float64(m.Errors))
	p.Gauge("knowphish_requests_in_flight", "Requests currently being served.", float64(m.InFlight))
	p.Counter("knowphish_batch_rejected_total", "Batch/stream/feed requests refused for exceeding the item limit.", float64(m.BatchRejected))
	p.Counter("knowphish_requests_cancelled_total", "Requests cut short by client disconnect.", float64(m.Cancelled))
	p.Counter("knowphish_streamed_items_total", "Result lines delivered on the streaming endpoint.", float64(m.StreamedItems))

	// Whole-verdict reuse (sizes and evictions: the memo tables below).
	p.Counter("knowphish_cache_hits_total", "Default-mode requests answered without computing a stage.", float64(m.CacheHits))
	p.Counter("knowphish_cache_misses_total", "Default-mode requests that computed at least one stage.", float64(m.CacheMisses))

	// Stage memo: staged passes and the score and target tables.
	cs := m.Coalesce
	p.Counter("knowphish_coalesce_batches_total", "Staged scoring passes run.", float64(cs.Batches))
	p.Counter("knowphish_coalesce_batched_items_total", "Requests scored through staged scoring passes.", float64(cs.BatchedItems))
	p.Counter("knowphish_coalesce_bypassed_total", "Requests routed around the stage memo (explain requests).", float64(cs.Bypassed))
	tables := []string{"score", "target"}
	memo := []coalesce.TableStats{cs.Score, cs.Target}
	p.Family("knowphish_memo_hits_total", "Memo-table hits (score, target).", "counter", "table", tables,
		func(i int) float64 { return float64(memo[i].Hits) })
	p.Family("knowphish_memo_misses_total", "Memo-table misses (score, target).", "counter", "table", tables,
		func(i int) float64 { return float64(memo[i].Misses) })
	p.Family("knowphish_memo_evictions_total", "Memo-table LRU evictions (score, target).", "counter", "table", tables,
		func(i int) float64 { return float64(memo[i].Evictions) })
	p.Family("knowphish_memo_entries", "Memo-table entries resident (score, target).", "gauge", "table", tables,
		func(i int) float64 { return float64(memo[i].Entries) })

	// Request latency histograms.
	all, batch := s.latency()
	p.Histogram("knowphish_request_duration_seconds", "Scoring-endpoint request latency.", all)
	p.Histogram("knowphish_batch_duration_seconds", "Per-batch request latency.", batch)

	// Admission control: shed counters, the active level, and the
	// per-endpoint rolling latency quantiles the SLO engine steers by.
	p.Counter("knowphish_shed_total", "Requests shed by admission control.", float64(m.Shed.Total))
	p.Counter("knowphish_shed_queued_total", "Of shed requests: shed at the worker-slot boundary after admission.", float64(m.Shed.Queued))
	p.Gauge("knowphish_shed_level", "Current admission shed level (0 = admitting everything).", float64(m.Shed.Level))
	classes := slices.Sorted(maps.Keys(m.Endpoints))
	p.Family("knowphish_endpoint_shed_total", "Requests shed per endpoint class.", "counter", "endpoint", classes,
		func(i int) float64 { return float64(m.Endpoints[classes[i]].Shed) })
	p.Header("knowphish_endpoint_latency_seconds", "Rolling windowed latency quantiles per endpoint class.", "gauge")
	quantiles := []string{"0.5", "0.99", "0.999"}
	for _, c := range classes {
		for _, ws := range m.Endpoints[c].Windows {
			for q, us := range []int64{ws.P50US, ws.P99US, ws.P999US} {
				p.Sample("knowphish_endpoint_latency_seconds", float64(us)/1e6,
					obs.Label{Name: "endpoint", Value: c},
					obs.Label{Name: "window", Value: ws.Window},
					obs.Label{Name: "quantile", Value: quantiles[q]})
			}
		}
	}

	// SLO engine: worst state, per-objective state and burn rates.
	if st := m.SLO; st != nil {
		p.Gauge("knowphish_slo_state", "Worst objective state (0 ok, 1 warn, 2 page).", float64(stateValue(st.State)))
		objs := make([]string, len(st.Objectives))
		for i, o := range st.Objectives {
			objs[i] = o.Name
		}
		p.Family("knowphish_slo_objective_state", "Per-objective state (0 ok, 1 warn, 2 page).", "gauge", "objective", objs,
			func(i int) float64 { return float64(stateValue(st.Objectives[i].State)) })
		p.Header("knowphish_slo_burn_rate", "Budget-normalized error-budget burn rate per objective and window (1.0 burns exactly the budget).", "gauge")
		for _, o := range st.Objectives {
			p.Sample("knowphish_slo_burn_rate", o.FastBurn, obs.Label{Name: "objective", Value: o.Name}, obs.Label{Name: "window", Value: "fast"})
			p.Sample("knowphish_slo_burn_rate", o.SlowBurn, obs.Label{Name: "objective", Value: o.Name}, obs.Label{Name: "window", Value: "slow"})
		}
		p.Family("knowphish_slo_budget_remaining", "Slow-window error-budget fraction remaining per objective.", "gauge", "objective", objs,
			func(i int) float64 { return st.Objectives[i].BudgetRemaining })
		p.Family("knowphish_slo_transitions_total", "State transitions per objective.", "counter", "objective", objs,
			func(i int) float64 { return float64(st.Objectives[i].Transitions) })
	}

	// Tracing: trace counters, and per-stage pipeline latency as one
	// label set per stage under a single family.
	if ts := m.Tracing; ts != nil {
		p.Counter("knowphish_traces_started_total", "Request traces started.", float64(ts.Started))
		p.Counter("knowphish_traces_finished_total", "Request traces finished.", float64(ts.Finished))
		p.Counter("knowphish_traces_slow_total", "Finished traces over the slow threshold.", float64(ts.Slow))
		p.Counter("knowphish_trace_errors_total", "Finished traces marked failed.", float64(ts.Errors))
		p.Counter("knowphish_trace_spans_dropped_total", "Spans dropped for exceeding the per-trace capacity.", float64(ts.SpansDropped))
		p.Header("knowphish_stage_duration_seconds", "Per-stage pipeline latency of traced requests.", "histogram")
		for i, name := range obs.StageNames() {
			p.HistFromHist("knowphish_stage_duration_seconds",
				[]obs.Label{{Name: "stage", Value: name}}, s.cfg.Tracer.StageWindow(obs.Stage(i)).SinceBoot())
		}
	}

	// Ingestion pipeline.
	if fs := m.Feed; fs != nil {
		p.Gauge("knowphish_feed_queue_depth", "Queued URLs (ready + deferred).", float64(fs.Depth))
		p.Gauge("knowphish_feed_in_flight", "URLs being crawled or scored right now.", float64(fs.InFlight))
		p.Counter("knowphish_feed_accepted_total", "URLs accepted into the queue.", float64(fs.Accepted))
		p.Counter("knowphish_feed_processed_total", "URLs that reached a persisted verdict.", float64(fs.Processed))
		p.Counter("knowphish_feed_failed_total", "URLs whose fetch budget was exhausted.", float64(fs.Failed))
		p.Counter("knowphish_feed_retries_total", "Fetch attempts beyond the first.", float64(fs.Retries))
		p.Counter("knowphish_feed_dropped_total", "Accepted URLs abandoned by an expired drain.", float64(fs.Dropped))
		rejected := []int64{fs.RejectedFull, fs.RejectedDuplicate, fs.RejectedInvalid, fs.RejectedClosed}
		p.Family("knowphish_feed_rejected_total", "URLs rejected at enqueue, by reason.", "counter", "reason",
			[]string{"queue_full", "duplicate", "invalid_url", "closed"},
			func(i int) float64 { return float64(rejected[i]) })
	}

	// Verdict store.
	if ss := m.Store; ss != nil {
		p.Gauge("knowphish_store_records", "Live (indexed) verdict records.", float64(ss.Records))
		p.Gauge("knowphish_store_segments", "Segment files of the segmented engine.", float64(ss.Segments))
		p.Counter("knowphish_store_appends_total", "Records appended since open.", float64(ss.Appends))
		p.Counter("knowphish_store_compactions_total", "Log rewrites since open.", float64(ss.Compactions))
		p.Counter("knowphish_store_superseded_total", "Records dropped by compaction.", float64(ss.Superseded))
		p.Counter("knowphish_store_compact_errors_total", "Automatic compactions that failed.", float64(ss.CompactErrors))
	}

	// Go runtime.
	p.WriteRuntimeMetrics()

	if err := p.Err(); err != nil {
		// Headers are gone; the scrape is torn and the scraper retries.
		s.metrics.errors.Add(1)
	}
}

// stateValue maps an SLO state string onto the numeric gauge scale
// alert rules compare against.
func stateValue(state string) int {
	switch state {
	case "warn":
		return 1
	case "page":
		return 2
	default:
		return 0
	}
}
