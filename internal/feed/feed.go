// Package feed is the continuous ingestion scheduler that turns the
// on-demand scorer into a feed-driven system: URL feeds (PhishTank-style
// streams in the paper's deployment discussion, Section VI) are
// submitted to a bounded queue, crawled under per-domain politeness
// constraints, scored by the detection → target-identification pipeline,
// and persisted to the verdict store.
//
// Design invariants:
//
//   - Backpressure, never blocking: Enqueue either accepts a URL or
//     rejects it immediately with a typed reason (queue full, duplicate,
//     invalid, closed). A producer reading a fast feed is never stalled
//     by a slow crawl.
//   - In-flight dedupe: a URL is tracked by registered domain + URL from
//     acceptance until its verdict is persisted; resubmissions in that
//     window are rejected as duplicates. Once scored, the same URL may
//     be enqueued again (its new verdict supersedes in the store).
//   - Per-domain rate limiting: each registered domain has a token
//     bucket (deleted once full again); an empty one defers its URLs,
//     not drops them, while other domains' URLs flow — one campaign
//     domain cannot starve the crawl budget.
//   - A failed fetch is final: the fetcher is a static page set, so
//     the failure is persisted at once and the feed's history is
//     complete.
//
// The worker loop runs on internal/pool — the same primitive behind
// every batch path in the repository — with per-item panic containment
// on top, because a single malformed page must not take down ingestion.
package feed

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/obs"
	"knowphish/internal/pool"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/urlx"
	"knowphish/internal/webpage"
)

// Defaults for Config zero values.
const (
	// DefaultQueueDepth bounds accepted-but-unscored URLs.
	DefaultQueueDepth = 1024
	// DefaultDomainRate is the per-registered-domain crawl rate
	// (tokens per second); a burst of two seconds of it is 8 tokens.
	DefaultDomainRate = 4.0
)

// Rejection reasons reported by Enqueue.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity.
	ErrQueueFull = errors.New("feed: queue full")
	// ErrDuplicate means the URL is already in flight (accepted and not
	// yet scored).
	ErrDuplicate = errors.New("feed: duplicate in-flight URL")
	// ErrInvalidURL means the URL has no usable host.
	ErrInvalidURL = errors.New("feed: invalid URL")
	// ErrClosed means the scheduler no longer accepts URLs.
	ErrClosed = errors.New("feed: closed")
)

// Config assembles a Scheduler.
type Config struct {
	// Fetcher resolves URLs to pages: the synthetic world or another
	// static page set, so a failed fetch is final. Required.
	Fetcher crawl.Fetcher
	// Pipeline scores crawled snapshots and identifies targets.
	// Required.
	Pipeline *core.Pipeline
	// Score optionally overrides how the drain scores a snapshot; it is
	// handed Pipeline. kpserve wires the serving layer's stage memo
	// (coalesce.Coalescer) here, so feed traffic shares the same
	// per-stage memo tables as the HTTP surface, and swaps in the model
	// registry's current champion per URL. Nil scores through
	// Pipeline.AnalyzeCtx directly.
	Score func(ctx context.Context, pipe *core.Pipeline, req core.ScoreRequest) (core.Verdict, error)
	// Store persists verdicts (optional; without it verdicts are only
	// observable through Stats); see store.Open.
	Store store.Backend
	// Workers is the crawl/score worker count (0 → GOMAXPROCS).
	Workers int
	// QueueDepth bounds accepted-but-unscored URLs
	// (0 → DefaultQueueDepth).
	QueueDepth int
	// DomainRate is the per-registered-domain token refill rate in
	// URLs/second (0 → DefaultDomainRate, negative → unlimited); the
	// burst is two seconds of it, max(1, ⌈2·rate⌉).
	DomainRate float64
	// Tracer, when set, records one trace per processed URL — crawl,
	// the core scoring stages, store append — alongside the serving
	// layer's request traces (optional).
	Tracer *obs.Tracer
	// Logger receives the scheduler's structured logs: failed fetches,
	// persistence failures, drops (nil → discard).
	Logger *slog.Logger

	// now overrides the clock in tests.
	now func() time.Time
}

// Stats is a snapshot of the scheduler counters, exported at /metrics.
type Stats struct {
	// Depth is the number of queued URLs (ready + deferred), the value
	// backpressure is applied against.
	Depth int `json:"depth"`
	// InFlight is the number of URLs being crawled/scored right now.
	InFlight int `json:"in_flight"`

	Accepted          int64 `json:"accepted"`
	RejectedFull      int64 `json:"rejected_full"`
	RejectedDuplicate int64 `json:"rejected_duplicate"`
	RejectedInvalid   int64 `json:"rejected_invalid"`
	RejectedClosed    int64 `json:"rejected_closed"`

	// Processed counts URLs that reached a persisted verdict.
	Processed int64 `json:"processed"`
	// Failed counts URLs whose fetch failed (their failure record is
	// persisted too) or whose processing panicked.
	Failed int64 `json:"failed"`
	// Retries counts fetch attempts beyond the first. A failed fetch is
	// final, so it reads 0; the field stays for the metric's readers.
	Retries int64 `json:"retries"`
	// RateDeferred counts deferrals due to an empty domain bucket.
	RateDeferred int64 `json:"rate_deferred"`
	// Dropped counts accepted URLs abandoned by an expired drain.
	Dropped int64 `json:"dropped"`
}

// item is one accepted URL moving through the scheduler.
type item struct {
	url     string
	domain  string // registered domain (rate-limit + dedupe scope)
	key     string // domain + url, the in-flight dedupe identity
	readyAt time.Time
}

// delayQueue is a min-heap of deferred items by readyAt.
type delayQueue []*item

func (q delayQueue) Len() int           { return len(q) }
func (q delayQueue) Less(i, j int) bool { return q[i].readyAt.Before(q[j].readyAt) }
func (q delayQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *delayQueue) Push(x any)        { *q = append(*q, x.(*item)) }
func (q *delayQueue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }
func (q delayQueue) peek() *item        { return q[0] }

// Scheduler is the continuous ingestion pipeline. All methods are safe
// for concurrent use.
type Scheduler struct {
	cfg   Config
	now   func() time.Time
	burst float64 // each domain bucket's capacity: two seconds of DomainRate

	// ctx is the scheduler's lifetime context, threaded into every
	// pipeline execution; cancel (called when a Drain deadline expires)
	// cuts off in-flight scoring at the next stage boundary instead of
	// letting abandoned work run to completion.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	cond     *sync.Cond
	ready    []*item
	delayed  delayQueue
	inflight map[string]struct{}
	buckets  map[string]*bucket
	swept    time.Time // last sweep of full buckets
	active   int
	closed   bool
	aborted  bool
	stats    Stats
	done     chan struct{} // closed when every worker has exited
}

// New validates the configuration and starts the worker loop.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Fetcher == nil {
		return nil, errors.New("feed: Config.Fetcher is required")
	}
	if cfg.Pipeline == nil || cfg.Pipeline.Detector == nil || cfg.Pipeline.Identifier == nil {
		return nil, errors.New("feed: Config.Pipeline with Detector and Identifier is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.DomainRate == 0 {
		cfg.DomainRate = DefaultDomainRate
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Scheduler{
		cfg:      cfg,
		now:      cfg.now,
		burst:    max(1, math.Ceil(2*cfg.DomainRate)),
		inflight: make(map[string]struct{}),
		buckets:  make(map[string]*bucket),
		done:     make(chan struct{}),
	}
	s.ctx, s.cancel = context.WithCancelCause(context.Background())
	if s.now == nil {
		s.now = time.Now
	}
	s.cond = sync.NewCond(&s.mu)
	// The worker loop rides internal/pool: one long-lived index per
	// worker. Per-item panics are contained inside process(); a panic
	// escaping that containment re-raises here via the pool's
	// propagation contract and is converted into a terminal error
	// rather than a process crash.
	go func() {
		defer close(s.done)
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				s.aborted = true
				s.cond.Broadcast()
				s.mu.Unlock()
			}
		}()
		pool.ForEachIndex(cfg.Workers, cfg.Workers, func(int) {
			for {
				it := s.next()
				if it == nil {
					return
				}
				s.process(it)
			}
		})
	}()
	return s, nil
}

// Enqueue submits one URL. It never blocks: the URL is either accepted
// (nil) or rejected with ErrQueueFull, ErrDuplicate, ErrInvalidURL or
// ErrClosed.
func (s *Scheduler) Enqueue(url string) error {
	parts, err := urlx.Parse(url)
	domain := parts.RDN
	if domain == "" {
		// IP-hosted or suffix-only URLs still get a rate-limit scope:
		// the whole host.
		domain = parts.FQDN
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.RejectedClosed++
		return fmt.Errorf("%w: %s", ErrClosed, url)
	}
	if err != nil || domain == "" {
		s.stats.RejectedInvalid++
		return fmt.Errorf("%w: %q", ErrInvalidURL, url)
	}
	key := domain + "\x00" + url
	if _, dup := s.inflight[key]; dup {
		s.stats.RejectedDuplicate++
		return fmt.Errorf("%w: %s", ErrDuplicate, url)
	}
	if s.depthLocked() >= s.cfg.QueueDepth {
		s.stats.RejectedFull++
		return fmt.Errorf("%w (depth %d): %s", ErrQueueFull, s.cfg.QueueDepth, url)
	}
	s.inflight[key] = struct{}{}
	s.ready = append(s.ready, &item{url: url, domain: domain, key: key})
	s.stats.Accepted++
	s.cond.Signal()
	return nil
}

// depthLocked is the queued-URL count backpressure is applied against.
func (s *Scheduler) depthLocked() int { return len(s.ready) + len(s.delayed) }

// next blocks until an item is runnable, returning nil when the
// scheduler is finished (drained and closed, or aborted).
func (s *Scheduler) next() *item {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.aborted {
			return nil
		}
		now := s.now()
		// Promote deferred items whose time has come.
		for len(s.delayed) > 0 && !s.delayed.peek().readyAt.After(now) {
			s.ready = append(s.ready, heap.Pop(&s.delayed).(*item))
		}
		// Take the first ready item whose domain has budget; defer the
		// ones that do not. Other domains' items behind a rate-limited
		// head keep flowing.
		for len(s.ready) > 0 {
			it := s.ready[0]
			s.ready = s.ready[1:]
			if wait, limited := s.takeTokenLocked(it.domain, now); limited {
				it.readyAt = now.Add(wait)
				heap.Push(&s.delayed, it)
				s.stats.RateDeferred++
				continue
			}
			s.active++
			return it
		}
		if s.closed && len(s.delayed) == 0 && s.active == 0 {
			s.cond.Broadcast() // release sibling workers too
			return nil
		}
		// Nothing runnable: sleep until the earliest deferred item is
		// due (or until an enqueue/finish/close wakes us).
		var timer *time.Timer
		if len(s.delayed) > 0 {
			d := s.delayed.peek().readyAt.Sub(now)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			timer = time.AfterFunc(d, s.cond.Broadcast)
		}
		s.cond.Wait()
		if timer != nil {
			timer.Stop()
		}
	}
}

// takeTokenLocked consumes a token from the domain's bucket, reporting
// the wait until one is available when the bucket is empty.
func (s *Scheduler) takeTokenLocked(domain string, now time.Time) (wait time.Duration, limited bool) {
	if s.cfg.DomainRate < 0 {
		return 0, false
	}
	// A bucket refilled to its burst takes exactly like a fresh one, so
	// a sweep per refill time deletes those and changes no decision.
	rate := s.cfg.DomainRate
	if now.Sub(s.swept) >= time.Duration(s.burst/rate*float64(time.Second)) {
		s.swept = now
		for d, b := range s.buckets {
			if b.tokens+now.Sub(b.last).Seconds()*rate >= s.burst {
				delete(s.buckets, d)
			}
		}
	}
	b := s.buckets[domain]
	if b == nil {
		b = &bucket{}
		s.buckets[domain] = b
	}
	ok, wait := b.take(now, rate, s.burst)
	return wait, !ok
}

// process runs crawl → score → target-identify → persist for one item,
// or persists a failure record when the fetch fails. Scoring runs under
// the scheduler's context, so an expired Drain cuts off in-flight
// pipeline work at the next stage boundary; such items count as
// dropped, like their queued siblings. Panics are contained and
// recorded as failures.
func (s *Scheduler) process(it *item) {
	defer func() {
		if r := recover(); r != nil {
			s.cfg.Logger.Error("feed item panicked", "url", it.url, "panic", fmt.Sprint(r))
			s.finish(it, fmt.Errorf("feed: panic processing %s: %v", it.url, r))
		}
	}()
	// Each processed URL gets its own trace: the crawl span here, the
	// scoring stages from the verdict's timings, and the store-append
	// span below. Finish runs on every exit, including a contained panic
	// (deferred after the recover, so it runs first).
	ctx, tr := s.cfg.Tracer.StartRequest(s.ctx, "feed", "")
	defer s.cfg.Tracer.Finish(tr)
	ts := time.Now()
	snap, err := crawl.Visit(s.cfg.Fetcher, it.url)
	tr.Span(obs.StageCrawl, ts, time.Since(ts).Nanoseconds())
	if err != nil {
		tr.SetError()
		s.fail(it, err)
		return
	}
	req := core.NewScoreRequest(snap)
	var v core.Verdict
	ts = time.Now()
	if s.cfg.Score != nil {
		v, err = s.cfg.Score(ctx, s.cfg.Pipeline, req)
	} else {
		v, err = s.cfg.Pipeline.AnalyzeCtx(ctx, req)
	}
	if err != nil {
		// The scheduler context was cancelled mid-scoring (expired
		// drain): abandon the item without a verdict.
		tr.SetError()
		s.drop(it)
		return
	}
	t := &v.Timings
	tr.Stages(ts, t.AnalyzeNS, t.FeaturesNS, t.ScoreNS, t.TargetNS, t.ExplainNS)
	out := v.Outcome
	// A verdict scored through the stage memo already carries the page's
	// key; only the plain path still has to hash.
	key := v.ContentKey
	if key == (webpage.Key128{}) {
		key = webpage.ContentKey(snap)
	}
	rec := store.Record{
		URL:          it.url,
		LandingURL:   snap.LandingURL,
		Fingerprint:  key.String(),
		Outcome:      out,
		ModelVersion: v.ModelVersion,
		ScoredAt:     s.now().UTC(),
	}
	if p, perr := urlx.Parse(snap.LandingURL); perr == nil {
		rec.RDN = p.RDN
	}
	if out.TargetRun && out.Target.Verdict == target.VerdictPhish && len(out.Target.Candidates) > 0 {
		rec.Target = out.Target.Candidates[0].RDN
	}
	ts = time.Now()
	err = s.persist(rec)
	tr.Span(obs.StageStoreAppend, ts, time.Since(ts).Nanoseconds())
	if err != nil {
		tr.SetError()
		s.cfg.Logger.Error("feed verdict persistence failed",
			"url", it.url, "trace_id", tr.TraceID(), "err", err)
	}
	s.finish(it, err)
}

// drop abandons an in-flight item without a verdict, accounting it as
// dropped like the queued items an expired Drain sweeps.
func (s *Scheduler) drop(it *item) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Dropped++
	s.active--
	delete(s.inflight, it.key)
	s.cond.Broadcast()
}

// fail persists a failed fetch as the URL's record and finishes the
// item. The fetcher is a static page set: a retry would fail again.
func (s *Scheduler) fail(it *item, err error) {
	s.cfg.Logger.Warn("feed fetch failed", "url", it.url, "err", err)
	rec := store.Record{URL: it.url, LandingURL: it.url, ScoredAt: s.now().UTC(), Error: "fetch failed: " + err.Error()}
	if perr := s.persist(rec); perr != nil {
		err = perr
	}
	s.finish(it, err)
}

// persist appends a record to the store, if one is configured. The
// append runs under a background context deliberately: by this point
// the verdict is computed and paid for, and a draining scheduler must
// not lose it to its own cancellation.
func (s *Scheduler) persist(rec store.Record) error {
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Append(context.Background(), rec)
}

// finish releases an item's in-flight slot and accounts the outcome.
func (s *Scheduler) finish(it *item, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	delete(s.inflight, it.key)
	if err != nil {
		s.stats.Failed++
	} else {
		s.stats.Processed++
	}
	s.cond.Broadcast()
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Depth = s.depthLocked()
	st.InFlight = s.active
	return st
}

// Wait blocks until every accepted URL has been processed or deadline
// passes (zero deadline → wait indefinitely). It does not stop intake.
func (s *Scheduler) Wait(deadline time.Time) bool {
	var timer *time.Timer
	if !deadline.IsZero() {
		timer = time.AfterFunc(time.Until(deadline), s.cond.Broadcast)
		defer timer.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.depthLocked()+s.active > 0 {
		if s.aborted || (!deadline.IsZero() && !s.now().Before(deadline)) {
			return s.depthLocked()+s.active == 0
		}
		s.cond.Wait()
	}
	return true
}

// Drain stops intake and waits until every accepted URL is scored and
// persisted, up to deadline (zero → wait indefinitely). URLs still
// queued when the deadline passes are dropped and counted; Drain
// returns how many. The worker loop has fully exited when Drain
// returns.
func (s *Scheduler) Drain(deadline time.Time) (dropped int) {
	s.mu.Lock()
	before := s.stats.Dropped
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	finished := s.Wait(deadline)

	s.mu.Lock()
	if !finished {
		// Deadline expired: abandon what is left in the queues.
		n := s.depthLocked()
		for _, it := range s.ready {
			delete(s.inflight, it.key)
		}
		for _, it := range s.delayed {
			delete(s.inflight, it.key)
		}
		s.ready, s.delayed = nil, nil
		s.stats.Dropped += int64(n)
		s.aborted = true
		// Cut off in-flight pipeline work too: workers observing s.ctx
		// abandon mid-score items at the next stage boundary instead of
		// finishing verdicts nobody will wait for.
		s.cancel(errors.New("feed: drain deadline expired"))
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	// The worker loop has exited; release the lifetime context either way.
	s.cancel(nil)
	s.mu.Lock()
	dropped = int(s.stats.Dropped - before)
	s.mu.Unlock()
	return dropped
}
