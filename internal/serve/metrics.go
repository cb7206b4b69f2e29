package serve

import (
	"sync/atomic"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/feed"
	"knowphish/internal/obs"
	"knowphish/internal/slo"
	"knowphish/internal/store"
)

// Metrics aggregates the serving counters exposed at /metrics. All
// fields are updated atomically; reading while serving is safe. The
// latencies live in the endpoint classes' histograms (Server.latency).
type Metrics struct {
	start time.Time

	requests      atomic.Int64 // all HTTP requests
	scored        atomic.Int64 // pages scored (batch items counted singly)
	phish         atomic.Int64 // pages with a final phishing verdict
	errors        atomic.Int64 // 4xx/5xx responses
	cacheHits     atomic.Int64
	cacheMiss     atomic.Int64
	inFlight      atomic.Int64
	batchRejected atomic.Int64 // batch/stream/feed requests over the item limit (413)
	cancelled     atomic.Int64 // requests cut short by client disconnect
	streamed      atomic.Int64 // stream result lines delivered
	shedTotal     atomic.Int64 // requests shed by admission control (all boundaries)
	shedQueued    atomic.Int64 // of shedTotal: shed at the worker-slot boundary
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// MetricsSnapshot is the JSON document served at /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	PagesScored   int64   `json:"pages_scored"`
	PhishVerdicts int64   `json:"phish_verdicts"`
	Errors        int64   `json:"errors"`
	InFlight      int64   `json:"in_flight"`

	// BatchRejected counts batch, stream and feed requests refused with
	// 413 for exceeding the DefaultMaxBatch item limit — the operator
	// signal that clients need to send smaller requests.
	BatchRejected int64 `json:"batch_rejected"`
	// Cancelled counts requests whose client disconnected (or whose
	// stream was cut) before the verdict was delivered; their remaining
	// scoring work was abandoned.
	Cancelled int64 `json:"cancelled"`
	// StreamedItems counts result lines delivered on /v2/score/stream.
	StreamedItems int64 `json:"streamed_items"`

	// CacheHits and CacheMisses count default-mode requests (and v1
	// within-batch duplicates, as hits) answered without and with
	// computing a pipeline stage; requests that cannot hit — no-memo,
	// refresh, explain — count in neither. Table sizes and evictions are
	// under Coalesce.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// ModelVersion is the registry version currently serving traffic
	// ("" for a detector loaded outside a registry). During a champion
	// swap it flips atomically with the swap.
	ModelVersion string `json:"model_version,omitempty"`

	// Feed and Store report the ingestion-pipeline counters (queue
	// depth, throughput, retries; record and compaction counts) when
	// those subsystems are configured.
	Feed  *feed.Stats  `json:"feed,omitempty"`
	Store *store.Stats `json:"store,omitempty"`
	// Coalesce reports the stage memo's staged-pass counters and the
	// hit/miss/eviction stats of its two tables, score and target (the
	// analysis and features entries are retired and read zero).
	Coalesce *coalesce.Stats `json:"coalesce,omitempty"`

	// Latency* are since-boot request latency over every class with a
	// histogram (score, target, batch, feed, verdicts); BatchLatency*
	// over the batch class alone.
	LatencyMeanUS int64 `json:"latency_mean_us"`
	LatencyP50US  int64 `json:"latency_p50_us"`
	LatencyP90US  int64 `json:"latency_p90_us"`
	LatencyP99US  int64 `json:"latency_p99_us"`

	BatchLatencyMeanUS int64 `json:"batch_latency_mean_us"`
	BatchLatencyP99US  int64 `json:"batch_latency_p99_us"`

	// Tracing reports the request-tracing aggregates (trace counts,
	// per-stage latency summaries, exemplar retention) when a tracer is
	// configured.
	Tracing *obs.Summary `json:"tracing,omitempty"`

	// Endpoints reports each endpoint class's shed priority, shed count
	// and windowed latency percentiles (1m/5m/1h) — the "p99 right now"
	// view kptop renders, as opposed to the since-boot percentiles
	// above.
	Endpoints map[string]EndpointMetrics `json:"endpoints,omitempty"`
	// Shed reports the admission controller's rejection counters and
	// current level (always present: zero counters are the healthy
	// baseline operators trend on).
	Shed ShedMetrics `json:"shed"`
	// SLO is the error-budget engine's status document — the same
	// document GET /debug/slo serves — when an engine is configured.
	SLO *slo.Status `json:"slo,omitempty"`
}

// EndpointMetrics is one endpoint class's entry in the metrics
// document.
type EndpointMetrics struct {
	// Priority is the class's shed priority (0 = never shed; higher =
	// shed later).
	Priority int `json:"priority"`
	// Shed counts requests rejected at this class's admission check.
	Shed int64 `json:"shed"`
	// Windows holds the rolling 1m/5m/1h latency summaries (absent for
	// ops classes, which are not latency-tracked).
	Windows []obs.WindowSummary `json:"windows,omitempty"`
}

// ShedMetrics reports the admission controller's counters.
type ShedMetrics struct {
	// Total counts all shed requests (entry checks plus worker-slot
	// re-checks).
	Total int64 `json:"total"`
	// Queued counts the subset shed at the worker-slot boundary —
	// admitted, then overtaken by rising burn while queued.
	Queued int64 `json:"queued"`
	// Level is the current shed level (0 = admitting everything).
	Level int `json:"level"`
}

// Snapshot captures the current counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	hits, miss := m.cacheHits.Load(), m.cacheMiss.Load()
	rate := 0.0
	if hits+miss > 0 {
		rate = float64(hits) / float64(hits+miss)
	}
	return MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Requests:      m.requests.Load(),
		PagesScored:   m.scored.Load(),
		PhishVerdicts: m.phish.Load(),
		Errors:        m.errors.Load(),
		InFlight:      m.inFlight.Load(),
		BatchRejected: m.batchRejected.Load(),
		Cancelled:     m.cancelled.Load(),
		StreamedItems: m.streamed.Load(),

		CacheHits:    hits,
		CacheMisses:  miss,
		CacheHitRate: rate,
	}
}
