// Package loadgen is the load-generation engine behind cmd/kpload and
// the end-to-end throughput benchmark: it replays a URL corpus against
// a running kpserve's POST /v1/feed and measures what the service
// actually sustains — throughput, latency percentiles, error and drop
// rates, and the feed queue depth each /v1/feed ack reports.
//
// Two loop disciplines, because they answer different questions:
//
//   - Closed loop (QPS = 0): each worker issues its next request the
//     moment the previous response lands. Offered load adapts to the
//     service, so the result is the ceiling — the maximum sustained
//     throughput at the configured concurrency.
//   - Open loop (QPS > 0): arrivals are paced at the target rate
//     regardless of how fast responses come back, the way real feed
//     traffic arrives. Each request's latency counts from its due time,
//     the tick that scheduled it, not from when a worker got round to
//     sending it: an arrival queued behind a slow response is charged
//     the wait, so the percentiles do not omit it (coordinated
//     omission). The report's send lag reads that wait apart.
//     Arrivals that find every worker busy and the arrival queue full
//     are counted as missed, never silently dropped.
//
// The engine lives in an internal package rather than in cmd/kpload so
// the benchmark gate and the serve e2e tests drive the same code path
// operators use.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knowphish/internal/obs"
	"knowphish/internal/serve"
)

// Defaults for Config zero values.
const (
	// DefaultWorkers is the concurrency when Config.Workers is unset.
	DefaultWorkers = 8
	// DefaultShedBackoff caps how long a worker honors a shed 503's
	// Retry-After before offering load again. The server's suggested
	// backoff can exceed the whole run; the cap keeps pressure on so
	// the run can observe shedding and recovery.
	DefaultShedBackoff = time.Second
)

// DefaultPageBytes is the approximate HTML size of the page score mode
// submits. Sized so one score costs the server whole milliseconds of
// parsing and feature extraction — small pages score in ~200µs, which
// makes overload unreachable at any realistic request rate.
const DefaultPageBytes = 64 << 10

// buildScorePage renders the page body score mode submits: a phish-like
// shell (title, login form) padded with linked paragraphs to roughly
// DefaultPageBytes, so the real parsing and feature-extraction pipeline
// does proportional work per request.
func buildScorePage() string {
	const size = DefaultPageBytes
	var b strings.Builder
	b.Grow(size + 512)
	b.WriteString(`<html><head><title>account verification portal</title></head>` +
		`<body><h1>Verify your account</h1>` +
		`<form action="/login" method="post"><input type="password" name="pw"/></form>`)
	for i := 0; b.Len() < size; i++ {
		fmt.Fprintf(&b, `<p>Your account access is suspended pending verification step %d. `+
			`Review the <a href="/notice/%d">notice</a> and confirm your identity to restore service.</p>`, i, i)
	}
	b.WriteString(`<a href="/support">support</a></body></html>`)
	return b.String()
}

// Config describes one load run.
type Config struct {
	// TargetURL is the kpserve base URL, e.g. "http://127.0.0.1:8080"
	// (required).
	TargetURL string
	// Corpus is the URL set to replay, round-robin (required).
	Corpus []string
	// QPS is the open-loop target arrival rate in URL submissions per
	// second; 0 runs the closed loop (workers back-to-back, measuring
	// the throughput ceiling).
	QPS float64
	// Workers is the concurrent request count (0 → DefaultWorkers).
	Workers int
	// Duration bounds the run. Ignored when Requests is set.
	Duration time.Duration
	// Requests, when positive, runs a fixed request budget instead of a
	// duration — the reproducible mode the benchmark gate uses.
	Requests int
	// Endpoint selects what the run replays: "feed" (default) posts one
	// URL per request to POST /v1/feed; "score" posts one page per request
	// to POST /v1/score, each with a unique starting URL so every
	// request takes the full scoring path instead of the verdict
	// cache. Score mode is what the overload smoke drives — it is the
	// endpoint the latency SLO guards; its pages are DefaultPageBytes
	// of HTML.
	Endpoint string
	// CacheMix is the fraction (0..1) of score-mode requests that
	// replay one of a small hot set of already-submitted pages instead
	// of a unique URL — warm traffic answered from the stage memo, the
	// way real feed duplicates are
	// (0 → every request unique; ignored in feed mode).
	CacheMix float64
}

// hotPages is the size of the hot set CacheMix replays: small enough
// that warm requests actually repeat, large enough to spread across
// memo shards.
const hotPages = 16

// Report is the outcome of a run — the LOAD_PR.json document.
type Report struct {
	// Mode is "closed" or "open".
	Mode string `json:"mode"`
	// TargetQPS is the configured arrival rate (0 in closed mode).
	TargetQPS float64 `json:"target_qps"`
	Workers   int     `json:"workers"`
	// CacheMix is the configured warm-traffic fraction (score mode).
	CacheMix float64 `json:"cache_mix,omitempty"`
	// DurationSeconds is the measured wall-clock span of the run.
	DurationSeconds float64 `json:"duration_seconds"`

	// Requests counts completed HTTP requests, one URL each;
	// SustainedQPS is URL submissions per second actually achieved.
	Requests     int64   `json:"requests"`
	SustainedQPS float64 `json:"sustained_qps"`

	// URLsSubmitted counts URLs carried by completed requests;
	// Accepted is how many the scheduler took; Rejected breaks the
	// rest down by the server's rejection reason.
	URLsSubmitted int64            `json:"urls_submitted"`
	Accepted      int64            `json:"accepted"`
	Rejected      map[string]int64 `json:"rejected"`
	// DropRate is rejected / submitted.
	DropRate float64 `json:"drop_rate"`

	// Errors counts failed requests (transport errors and non-200
	// responses other than shed 503s); ErrorRate is
	// errors / (requests + errors + shed).
	Errors    int64   `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// Shed counts 503 responses carrying a Retry-After header — the
	// admission controller rejecting load to protect its SLO. They are
	// broken out from Errors because shedding under overload is the
	// server working as designed; ShedRate is shed / (requests +
	// errors + shed).
	Shed     int64   `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	// RetryAfterHonored counts shed responses after which the worker
	// actually backed off for the advertised Retry-After (capped at
	// the configured backoff) before offering load again.
	RetryAfterHonored int64 `json:"retry_after_honored"`
	// MissedArrivals counts open-loop arrivals discarded because the
	// arrival queue was full — offered load the service never saw.
	// Nonzero means the measured rate understates the target.
	MissedArrivals int64 `json:"missed_arrivals"`

	LatencyMeanUS int64 `json:"latency_mean_us"`
	LatencyP50US  int64 `json:"latency_p50_us"`
	LatencyP90US  int64 `json:"latency_p90_us"`
	LatencyP99US  int64 `json:"latency_p99_us"`
	LatencyP999US int64 `json:"latency_p999_us"`
	LatencyMaxUS  int64 `json:"latency_max_us"`
	// SendLagP99US is the p99 of how late requests were sent after
	// their due time (open loop; 0 in the closed loop, where a request
	// is due when it is sent). The latencies include this lag, so a high
	// value means the generator, not the server, fell behind.
	SendLagP99US int64 `json:"send_lag_p99_us"`

	// QueueDepthMax is the deepest feed queue any /v1/feed ack
	// reported; QueueDepthFinal is the last ack's depth.
	QueueDepthMax   int `json:"queue_depth_max"`
	QueueDepthFinal int `json:"queue_depth_final"`
}

// run is the engine's mutable state while a load test executes.
type run struct {
	cfg      Config
	client   *http.Client
	pageHTML string // score mode: the page body, built once

	next     atomic.Int64 // corpus round-robin position
	budget   atomic.Int64 // remaining requests (fixed-budget mode)
	requests atomic.Int64
	accepted atomic.Int64
	errors   atomic.Int64
	shed     atomic.Int64
	honored  atomic.Int64
	missed   atomic.Int64

	mu        sync.Mutex
	latencies []int64 // µs from due time, one per completed request
	lags      []int64 // µs from due time to send, one per completed request
	rejected  map[string]int64
	depthMax  int
	depthLast int
}

// Run executes one load test and reports what the service sustained.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.TargetURL == "" {
		return Report{}, errors.New("loadgen: Config.TargetURL is required")
	}
	if len(cfg.Corpus) == 0 {
		return Report{}, errors.New("loadgen: Config.Corpus is empty")
	}
	if cfg.Duration <= 0 && cfg.Requests <= 0 {
		return Report{}, errors.New("loadgen: Config needs a Duration or a Requests budget")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	switch cfg.Endpoint {
	case "":
		cfg.Endpoint = "feed"
	case "feed", "score":
	default:
		return Report{}, fmt.Errorf("loadgen: unknown Endpoint %q (want feed or score)", cfg.Endpoint)
	}
	if cfg.CacheMix < 0 || cfg.CacheMix > 1 {
		return Report{}, fmt.Errorf("loadgen: CacheMix %v out of range [0, 1]", cfg.CacheMix)
	}
	// The open-loop pacer ticks once per request; time.NewTicker panics
	// on an interval that rounds to zero.
	if math.IsNaN(cfg.QPS) || math.IsInf(cfg.QPS, 0) {
		return Report{}, fmt.Errorf("loadgen: QPS %v is not finite", cfg.QPS)
	}
	var tick time.Duration
	if cfg.QPS > 0 {
		if tick = time.Duration(float64(time.Second) / cfg.QPS); tick < 1 {
			return Report{}, fmt.Errorf("loadgen: QPS %v paces requests %v apart, under the pacer's 1ns", cfg.QPS, tick)
		}
	}
	// A dedicated transport with the pool sized to the worker count:
	// http.DefaultTransport keeps only 2 idle conns per host, so a
	// 64-worker run over it thrashes connections and measures the
	// client's own queueing instead of the server's.
	tr := &http.Transport{
		MaxIdleConns:        cfg.Workers,
		MaxIdleConnsPerHost: cfg.Workers,
	}
	r := &run{
		cfg:      cfg,
		client:   &http.Client{Timeout: 30 * time.Second, Transport: tr},
		rejected: make(map[string]int64),
	}
	if cfg.Endpoint == "score" {
		r.pageHTML = buildScorePage()
	}
	if cfg.Requests > 0 {
		r.budget.Store(int64(cfg.Requests))
	} else {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	// Open loop: a pacer goroutine emits each arrival's due time at the
	// target rate into a bounded queue (one second of arrivals); workers
	// drain it. Closed loop: no pacer, workers self-pace on response
	// completion.
	var arrivals chan time.Time
	if cfg.QPS > 0 {
		arrivals = make(chan time.Time, max(int(cfg.QPS), cfg.Workers))
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					close(arrivals)
					return
				case due := <-t.C:
					select {
					case arrivals <- due:
					default:
						r.missed.Add(1) // queue full: offered load lost
					}
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cfg.Requests > 0 && r.budget.Add(-1) < 0 {
					return
				}
				var due time.Time // zero in the closed loop: due when sent
				if arrivals != nil {
					var ok bool
					select {
					case <-ctx.Done():
						return
					case due, ok = <-arrivals:
						if !ok {
							return
						}
					}
				} else if ctx.Err() != nil {
					return
				}
				r.shoot(ctx, due)
			}
		}()
	}
	wg.Wait()
	return r.report(time.Since(start)), nil
}

// shoot issues one request (one feed URL or one score page) due at due
// (zero: now) and records its outcome.
func (r *run) shoot(ctx context.Context, due time.Time) {
	var body []byte
	var path string
	n := r.next.Add(1) - 1
	if r.cfg.Endpoint == "score" {
		// A unique query string per request defeats the stage memo,
		// so every accepted request pays the full scoring pipeline —
		// the work the latency SLO budgets. With CacheMix set, that
		// fraction of requests replays the hot set instead, so the run
		// measures the cached fast path in the advertised proportion.
		var u string
		if r.cfg.CacheMix > 0 && float64(n%1000) < r.cfg.CacheMix*1000 {
			hot := n % hotPages
			u = r.cfg.Corpus[int(hot)%len(r.cfg.Corpus)] + "?hot=" + strconv.FormatInt(hot, 10)
		} else {
			u = r.cfg.Corpus[int(n)%len(r.cfg.Corpus)] + "?q=" + strconv.FormatInt(n, 10)
		}
		body, _ = json.Marshal(serve.PageRequest{HTML: r.pageHTML, StartingURL: u})
		path = "/v1/score"
	} else {
		body, _ = json.Marshal(serve.FeedRequest{URLs: []string{r.cfg.Corpus[int(n)%len(r.cfg.Corpus)]}})
		path = "/v1/feed"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.TargetURL+path, bytes.NewReader(body))
	if err != nil {
		r.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	resp, err := r.client.Do(req)
	lat := time.Since(due).Microseconds()
	lag := t0.Sub(due).Microseconds()
	if err != nil {
		// A request cut off by the run deadline is neither a completed
		// request nor a service error — it just did not finish in time.
		if ctx.Err() == nil {
			r.errors.Add(1)
		}
		return
	}
	defer resp.Body.Close()
	// A 503 carrying Retry-After is the admission controller shedding
	// load — the server protecting its SLO, not failing. Count it apart
	// from errors and honor the advertised backoff (capped, so a
	// 60-second suggestion cannot idle the run) before offering load
	// again. Shed latencies stay out of the latency sample: they
	// measure the rejection fast path, not service.
	if resp.StatusCode == http.StatusServiceUnavailable {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			r.shed.Add(1)
			if backoff := retryAfterDelay(ra, DefaultShedBackoff); backoff > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(backoff):
					r.honored.Add(1)
				}
			}
			return
		}
	}
	var fr serve.FeedResponse
	var doc any = &fr
	if r.cfg.Endpoint == "score" {
		doc = &serve.ScoreResponse{}
		fr.Accepted = 1
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(doc) != nil {
		r.errors.Add(1)
		return
	}
	r.requests.Add(1)
	r.accepted.Add(int64(fr.Accepted))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies = append(r.latencies, lat)
	r.lags = append(r.lags, lag)
	if r.cfg.Endpoint == "score" {
		return
	}
	r.depthMax = max(r.depthMax, fr.QueueDepth)
	r.depthLast = fr.QueueDepth
	for _, res := range fr.Results {
		if !res.Accepted {
			r.rejected[res.Reason]++
		}
	}
}

// retryAfterDelay parses a Retry-After header (delta-seconds form) and
// caps it at max. Unparseable values fall back to max: the server asked
// for a backoff, so back off, just not forever.
func retryAfterDelay(ra string, max time.Duration) time.Duration {
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 0 {
		return max
	}
	d := time.Duration(secs) * time.Second
	if d > max {
		return max
	}
	return d
}

// report assembles the final document from the run's counters.
func (r *run) report(elapsed time.Duration) Report {
	rep := Report{
		Mode:              "closed",
		TargetQPS:         r.cfg.QPS,
		Workers:           r.cfg.Workers,
		CacheMix:          r.cfg.CacheMix,
		DurationSeconds:   elapsed.Seconds(),
		Requests:          r.requests.Load(),
		URLsSubmitted:     r.requests.Load(), // one URL per request
		Accepted:          r.accepted.Load(),
		Errors:            r.errors.Load(),
		Shed:              r.shed.Load(),
		RetryAfterHonored: r.honored.Load(),
		MissedArrivals:    r.missed.Load(),
		Rejected:          r.rejected,
		QueueDepthMax:     r.depthMax,
		QueueDepthFinal:   r.depthLast,
	}
	if r.cfg.QPS > 0 {
		rep.Mode = "open"
	}
	if elapsed > 0 {
		rep.SustainedQPS = float64(rep.URLsSubmitted) / elapsed.Seconds()
	}
	if rep.URLsSubmitted > 0 {
		rep.DropRate = float64(rep.URLsSubmitted-rep.Accepted) / float64(rep.URLsSubmitted)
	}
	if total := rep.Requests + rep.Errors + rep.Shed; total > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(total)
		rep.ShedRate = float64(rep.Shed) / float64(total)
	}
	slices.Sort(r.latencies)
	if n := len(r.latencies); n > 0 {
		var sum int64
		for _, l := range r.latencies {
			sum += l
		}
		rep.LatencyMeanUS = sum / int64(n)
		rep.LatencyP50US = percentile(r.latencies, 50)
		rep.LatencyP90US = percentile(r.latencies, 90)
		rep.LatencyP99US = percentile(r.latencies, 99)
		rep.LatencyP999US = percentile(r.latencies, 99.9)
		rep.LatencyMaxUS = r.latencies[n-1]
		slices.Sort(r.lags)
		rep.SendLagP99US = percentile(r.lags, 99)
	}
	return rep
}

// percentile reads the p-th percentile (p in [0, 100]) from a
// non-empty ascending-sorted sample set by the nearest-rank rule the
// server's histograms use (obs.NearestRank): exact over the recorded
// population, no bucketing error — a load report's p999 should not be
// an approximation.
func percentile(sorted []int64, p float64) int64 {
	return sorted[obs.NearestRank(p, int64(len(sorted)))-1]
}

// Table renders the human-readable summary cmd/kpload prints.
func (r Report) Table() string {
	var b strings.Builder
	w := func(k, format string, args ...any) {
		fmt.Fprintf(&b, "  %-16s %s\n", k, fmt.Sprintf(format, args...))
	}
	target := "unlimited (closed loop)"
	if r.TargetQPS > 0 {
		target = fmt.Sprintf("%.0f URL/s", r.TargetQPS)
	}
	w("mode", "%s", r.Mode)
	w("target rate", "%s", target)
	w("workers", "%d", r.Workers)
	if r.CacheMix > 0 {
		w("cache mix", "%.0f%% warm (hot set of %d pages)", r.CacheMix*100, hotPages)
	}
	w("duration", "%.1f s", r.DurationSeconds)
	w("sustained", "%.1f URL/s (%d requests)", r.SustainedQPS, r.Requests)
	w("accepted", "%d (drop rate %.2f%%)", r.Accepted, r.DropRate*100)
	if len(r.Rejected) > 0 {
		var parts []string
		for _, reason := range slices.Sorted(maps.Keys(r.Rejected)) {
			parts = append(parts, fmt.Sprintf("%s %d", reason, r.Rejected[reason]))
		}
		w("rejected", "%s", strings.Join(parts, ", "))
	}
	w("errors", "%d (%.2f%%)", r.Errors, r.ErrorRate*100)
	if r.Shed > 0 {
		w("shed", "%d (%.2f%%) — 503 + Retry-After; backoff honored %d times",
			r.Shed, r.ShedRate*100, r.RetryAfterHonored)
	}
	if r.MissedArrivals > 0 {
		w("missed", "%d arrivals (generator could not keep pace)", r.MissedArrivals)
	}
	w("latency", "p50 %s  p90 %s  p99 %s  p999 %s  max %s",
		us(r.LatencyP50US), us(r.LatencyP90US), us(r.LatencyP99US), us(r.LatencyP999US), us(r.LatencyMaxUS))
	if r.Mode == "open" {
		w("send lag", "p99 %s (counted in latency)", us(r.SendLagP99US))
	}
	w("queue depth", "max %d, final %d", r.QueueDepthMax, r.QueueDepthFinal)
	return b.String()
}

// us renders a microsecond latency with a human unit.
func us(v int64) string {
	d := time.Duration(v) * time.Microsecond
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", v)
	}
}

// WriteJSON writes the report as an indented JSON document — the
// LOAD_PR.json artifact CI uploads next to BENCH_PR.json.
func (r Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DefaultWorkersForHost picks a worker count for CLI defaults: enough
// concurrency to saturate the scoring pool without swamping a laptop.
func DefaultWorkersForHost() int {
	n := runtime.GOMAXPROCS(0)
	if n < DefaultWorkers {
		return DefaultWorkers
	}
	return n
}
