package serve

import (
	"net/http"
	"sort"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/obs"
)

// writePrometheus renders the full metrics surface in the Prometheus
// text exposition format (version 0.0.4): serving counters and latency
// histograms, per-stage pipeline histograms from the tracer, feed and
// store gauges when those subsystems are wired in, the model info
// metric, and the Go runtime metrics. The JSON document at /metrics
// stays the frozen default; this is the scrape surface behind
// ?format=prometheus.
//
// Naming follows Prometheus conventions: monotonically increasing
// values are *_total counters, point-in-time values are gauges,
// latencies are *_seconds histograms, and model identity rides on an
// info metric (a gauge fixed at 1 whose labels carry the metadata).
func (s *Server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", obs.PromContentType)
	p := obs.NewPromWriter(w)
	m := s.metrics

	// Serving counters.
	p.Gauge("knowphish_uptime_seconds", "Seconds since the server started.", time.Since(m.start).Seconds())
	p.Counter("knowphish_http_requests_total", "HTTP requests received.", float64(m.requests.Load()))
	p.Counter("knowphish_pages_scored_total", "Pages scored (batch items counted singly).", float64(m.scored.Load()))
	p.Counter("knowphish_phish_verdicts_total", "Pages with a final phishing verdict.", float64(m.phish.Load()))
	p.Counter("knowphish_http_errors_total", "4xx/5xx responses.", float64(m.errors.Load()))
	p.Gauge("knowphish_requests_in_flight", "Requests currently being served.", float64(m.inFlight.Load()))
	p.Counter("knowphish_batch_rejected_total", "Batch/stream/feed requests refused for exceeding the item limit.", float64(m.batchRejected.Load()))
	p.Counter("knowphish_requests_cancelled_total", "Requests cut short by client disconnect.", float64(m.cancelled.Load()))
	p.Counter("knowphish_streamed_items_total", "Result lines delivered on the streaming endpoint.", float64(m.streamed.Load()))

	// Whole-verdict reuse (sizes and evictions: the memo tables below).
	p.Counter("knowphish_cache_hits_total", "Default-mode requests answered without computing a stage.", float64(m.cacheHits.Load()))
	p.Counter("knowphish_cache_misses_total", "Default-mode requests that computed at least one stage.", float64(m.cacheMiss.Load()))

	// Stage memo: staged passes and the score and target tables.
	cs := s.coal.Snapshot()
	p.Counter("knowphish_coalesce_batches_total", "Staged scoring passes run.", float64(cs.Batches))
	p.Counter("knowphish_coalesce_batched_items_total", "Requests scored through staged scoring passes.", float64(cs.BatchedItems))
	p.Counter("knowphish_coalesce_bypassed_total", "Requests routed around the stage memo (explain requests).", float64(cs.Bypassed))
	tables := []struct {
		name string
		st   coalesce.TableStats
	}{
		{"score", cs.Score},
		{"target", cs.Target},
	}
	hits := make([]obs.LabeledSample, 0, len(tables))
	misses := make([]obs.LabeledSample, 0, len(tables))
	evictions := make([]obs.LabeledSample, 0, len(tables))
	entries := make([]obs.LabeledSample, 0, len(tables))
	for _, t := range tables {
		l := []obs.Label{{Name: "table", Value: t.name}}
		hits = append(hits, obs.LabeledSample{Labels: l, Value: float64(t.st.Hits)})
		misses = append(misses, obs.LabeledSample{Labels: l, Value: float64(t.st.Misses)})
		evictions = append(evictions, obs.LabeledSample{Labels: l, Value: float64(t.st.Evictions)})
		entries = append(entries, obs.LabeledSample{Labels: l, Value: float64(t.st.Entries)})
	}
	p.FamilyL("knowphish_memo_hits_total", "Memo-table hits (score, target).", "counter", hits)
	p.FamilyL("knowphish_memo_misses_total", "Memo-table misses (score, target).", "counter", misses)
	p.FamilyL("knowphish_memo_evictions_total", "Memo-table LRU evictions (score, target).", "counter", evictions)
	p.FamilyL("knowphish_memo_entries", "Memo-table entries resident (score, target).", "gauge", entries)

	// Request latency histograms.
	all, batch := s.latency()
	p.Histogram("knowphish_request_duration_seconds", "Scoring-endpoint request latency.", all)
	p.Histogram("knowphish_batch_duration_seconds", "Per-batch request latency.", batch)

	// Admission control: shed counters, the active level, and the
	// per-endpoint rolling latency quantiles the SLO engine steers by.
	// Classes are sorted by name so the exposition is byte-stable.
	p.Counter("knowphish_shed_total", "Requests shed by admission control.", float64(m.shedTotal.Load()))
	p.Counter("knowphish_shed_queued_total", "Of shed requests: shed at the worker-slot boundary after admission.", float64(m.shedQueued.Load()))
	p.Gauge("knowphish_shed_level", "Current admission shed level (0 = admitting everything).", float64(s.cfg.SLO.ShedLevel()))
	classes := make([]*endpointClass, len(s.classes))
	copy(classes, s.classes)
	sort.Slice(classes, func(i, j int) bool { return classes[i].name < classes[j].name })
	shedByClass := make([]obs.LabeledSample, 0, len(classes))
	winQuantiles := make([]obs.LabeledSample, 0, len(classes)*9)
	for _, c := range classes {
		shedByClass = append(shedByClass, obs.LabeledSample{
			Labels: []obs.Label{{Name: "endpoint", Value: c.name}},
			Value:  float64(c.shed.Load()),
		})
		if c.window == nil {
			continue
		}
		for _, ws := range c.window.Summaries() {
			for _, q := range []struct {
				quantile string
				us       int64
			}{{"0.5", ws.P50US}, {"0.99", ws.P99US}, {"0.999", ws.P999US}} {
				winQuantiles = append(winQuantiles, obs.LabeledSample{
					Labels: []obs.Label{
						{Name: "endpoint", Value: c.name},
						{Name: "window", Value: ws.Window},
						{Name: "quantile", Value: q.quantile},
					},
					Value: float64(q.us) / 1e6,
				})
			}
		}
	}
	p.FamilyL("knowphish_endpoint_shed_total", "Requests shed per endpoint class.", "counter", shedByClass)
	p.FamilyL("knowphish_endpoint_latency_seconds", "Rolling windowed latency quantiles per endpoint class.", "gauge", winQuantiles)

	// SLO engine: worst state, per-objective state and burn rates.
	if s.cfg.SLO != nil {
		st := s.cfg.SLO.Status()
		p.Gauge("knowphish_slo_state", "Worst objective state (0 ok, 1 warn, 2 page).", float64(stateValue(st.State)))
		objState := make([]obs.LabeledSample, 0, len(st.Objectives))
		objBurn := make([]obs.LabeledSample, 0, len(st.Objectives)*2)
		objBudget := make([]obs.LabeledSample, 0, len(st.Objectives))
		objTrans := make([]obs.LabeledSample, 0, len(st.Objectives))
		for _, o := range st.Objectives {
			l := []obs.Label{{Name: "objective", Value: o.Name}}
			objState = append(objState, obs.LabeledSample{Labels: l, Value: float64(stateValue(o.State))})
			objBurn = append(objBurn,
				obs.LabeledSample{Labels: []obs.Label{{Name: "objective", Value: o.Name}, {Name: "window", Value: "fast"}}, Value: o.FastBurn},
				obs.LabeledSample{Labels: []obs.Label{{Name: "objective", Value: o.Name}, {Name: "window", Value: "slow"}}, Value: o.SlowBurn})
			objBudget = append(objBudget, obs.LabeledSample{Labels: l, Value: o.BudgetRemaining})
			objTrans = append(objTrans, obs.LabeledSample{Labels: l, Value: float64(o.Transitions)})
		}
		p.FamilyL("knowphish_slo_objective_state", "Per-objective state (0 ok, 1 warn, 2 page).", "gauge", objState)
		p.FamilyL("knowphish_slo_burn_rate", "Budget-normalized error-budget burn rate per objective and window (1.0 burns exactly the budget).", "gauge", objBurn)
		p.FamilyL("knowphish_slo_budget_remaining", "Slow-window error-budget fraction remaining per objective.", "gauge", objBudget)
		p.FamilyL("knowphish_slo_transitions_total", "State transitions per objective.", "counter", objTrans)
	}

	// Per-stage pipeline latency from the tracer, one label set per
	// stage under a single family.
	if s.cfg.Tracer != nil {
		sum := s.cfg.Tracer.Summary()
		p.Counter("knowphish_traces_started_total", "Request traces started.", float64(sum.Started))
		p.Counter("knowphish_traces_finished_total", "Request traces finished.", float64(sum.Finished))
		p.Counter("knowphish_traces_slow_total", "Finished traces over the slow threshold.", float64(sum.Slow))
		p.Counter("knowphish_trace_errors_total", "Finished traces marked failed.", float64(sum.Errors))
		p.Counter("knowphish_trace_spans_dropped_total", "Spans dropped for exceeding the per-trace capacity.", float64(sum.SpansDropped))
		p.HistHeader("knowphish_stage_duration_seconds", "Per-stage pipeline latency of traced requests.")
		for i, name := range obs.StageNames() {
			p.HistFromHist("knowphish_stage_duration_seconds",
				[]obs.Label{{Name: "stage", Value: name}}, s.cfg.Tracer.StageWindow(obs.Stage(i)).SinceBoot())
		}
	}

	// Model identity: version from the serving detector, artifact hash
	// from the registry manifest when one backs this server.
	if det := s.detector(); det != nil {
		labels := []obs.Label{{Name: "version", Value: det.Version()}}
		if s.cfg.Registry != nil {
			if mod, ok := s.cfg.Registry.Champion(); ok {
				labels = append(labels,
					obs.Label{Name: "hash", Value: mod.Manifest.Hash},
					obs.Label{Name: "feature_set", Value: mod.Manifest.FeatureSet})
			}
		}
		p.Info("knowphish_model_info", "The model version serving traffic.", labels)
	}

	// Ingestion pipeline.
	if s.cfg.Feed != nil {
		fs := s.cfg.Feed.Stats()
		p.Gauge("knowphish_feed_queue_depth", "Queued URLs (ready + deferred).", float64(fs.Depth))
		p.Gauge("knowphish_feed_in_flight", "URLs being crawled or scored right now.", float64(fs.InFlight))
		p.Counter("knowphish_feed_accepted_total", "URLs accepted into the queue.", float64(fs.Accepted))
		p.Counter("knowphish_feed_processed_total", "URLs that reached a persisted verdict.", float64(fs.Processed))
		p.Counter("knowphish_feed_failed_total", "URLs whose fetch budget was exhausted.", float64(fs.Failed))
		p.Counter("knowphish_feed_retries_total", "Fetch attempts beyond the first.", float64(fs.Retries))
		p.Counter("knowphish_feed_dropped_total", "Accepted URLs abandoned by an expired drain.", float64(fs.Dropped))
		p.FamilyL("knowphish_feed_rejected_total", "URLs rejected at enqueue, by reason.", "counter", []obs.LabeledSample{
			{Labels: []obs.Label{{Name: "reason", Value: "queue_full"}}, Value: float64(fs.RejectedFull)},
			{Labels: []obs.Label{{Name: "reason", Value: "duplicate"}}, Value: float64(fs.RejectedDuplicate)},
			{Labels: []obs.Label{{Name: "reason", Value: "invalid_url"}}, Value: float64(fs.RejectedInvalid)},
			{Labels: []obs.Label{{Name: "reason", Value: "closed"}}, Value: float64(fs.RejectedClosed)},
		})
	}

	// Feed connectors: one labelled sample per source (and per reason
	// for the reject family), sorted by name so the exposition is
	// byte-stable between scrapes.
	if s.cfg.FeedSources != nil {
		stats := s.cfg.FeedSources.Stats()
		names := make([]string, 0, len(stats))
		for name := range stats {
			names = append(names, name)
		}
		sort.Strings(names)
		lag := make([]obs.LabeledSample, 0, len(names))
		fetches := make([]obs.LabeledSample, 0, len(names))
		fetchErrs := make([]obs.LabeledSample, 0, len(names))
		items := make([]obs.LabeledSample, 0, len(names))
		enq := make([]obs.LabeledSample, 0, len(names))
		malformed := make([]obs.LabeledSample, 0, len(names))
		rejected := make([]obs.LabeledSample, 0, len(names)*3)
		for _, name := range names {
			st := stats[name]
			l := []obs.Label{{Name: "source", Value: name}}
			lag = append(lag, obs.LabeledSample{Labels: l, Value: st.LagSeconds})
			fetches = append(fetches, obs.LabeledSample{Labels: l, Value: float64(st.Fetches)})
			fetchErrs = append(fetchErrs, obs.LabeledSample{Labels: l, Value: float64(st.FetchErrors)})
			items = append(items, obs.LabeledSample{Labels: l, Value: float64(st.Items)})
			enq = append(enq, obs.LabeledSample{Labels: l, Value: float64(st.Enqueued)})
			malformed = append(malformed, obs.LabeledSample{Labels: l, Value: float64(st.Malformed)})
			for _, rr := range []struct {
				reason string
				n      int64
			}{
				{"queue_full", st.Rejected.QueueFull},
				{"rate_limited", st.Rejected.RateLimited},
				{"duplicate", st.Rejected.Duplicate},
				{"invalid_url", st.Rejected.Invalid},
				{"closed", st.Rejected.Closed},
			} {
				rejected = append(rejected, obs.LabeledSample{
					Labels: []obs.Label{{Name: "source", Value: name}, {Name: "reason", Value: rr.reason}},
					Value:  float64(rr.n),
				})
			}
		}
		p.FamilyL("knowphish_feedsrc_lag_seconds", "Seconds since the source's last successful poll (-1 before the first).", "gauge", lag)
		p.FamilyL("knowphish_feedsrc_fetches_total", "Successful polls per source.", "counter", fetches)
		p.FamilyL("knowphish_feedsrc_fetch_errors_total", "Failed polls per source.", "counter", fetchErrs)
		p.FamilyL("knowphish_feedsrc_items_total", "URLs produced per source.", "counter", items)
		p.FamilyL("knowphish_feedsrc_enqueued_total", "URLs accepted into the scheduler per source.", "counter", enq)
		p.FamilyL("knowphish_feedsrc_malformed_total", "Feed entries skipped as unusable per source.", "counter", malformed)
		p.FamilyL("knowphish_feedsrc_rejected_total", "URLs a source produced that were not enqueued, by reason.", "counter", rejected)
	}

	// Verdict store.
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
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
