package feedsrc

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"knowphish/internal/feed"
	"knowphish/internal/obs"
)

// Mux defaults for Config zero values, and the fixed backoff cap.
const (
	// DefaultInterval is the idle poll interval per source.
	DefaultInterval = 30 * time.Second
	// DefaultMuxBackoff caps the per-source exponential error backoff.
	// An explicit Retry-After from the server overrides the exponential
	// schedule.
	DefaultMuxBackoff = 5 * time.Minute
	// DefaultDedupeWindow is how many recently delivered URLs the mux
	// remembers across all sources for cross-source dedupe. The
	// scheduler dedupes in-flight URLs; this window additionally absorbs
	// re-deliveries of already-scored URLs (overlapping polls, two feeds
	// reporting the same campaign).
	DefaultDedupeWindow = 8192
)

// Sink receives the URLs the Mux delivers — satisfied by
// *feed.Scheduler. It must never block: rejections are immediate and
// typed (the feed package's backpressure contract).
type Sink interface {
	EnqueueFrom(url, source string) error
}

// MuxConfig assembles a Mux.
type MuxConfig struct {
	// Sink receives accepted URLs (required; normally the feed
	// scheduler).
	Sink Sink
	// Sources are the connectors to drive, one goroutine each
	// (required, at least one). Source names must be unique and
	// filesystem-safe (they name cursor files).
	Sources []Source
	// Interval is each source's idle poll interval (0 →
	// DefaultInterval). A poll that yielded items is followed
	// immediately by another — a hot feed is drained, not sipped.
	Interval time.Duration
	// Rate caps each source's delivery rate in URLs/second (0 =
	// unlimited). The cap sheds rather than blocks: items beyond a
	// source's share are dropped and counted as rate_limited, so one
	// torrential feed cannot monopolise the scheduler's queue or stall
	// its siblings.
	Rate float64
	// CursorDir, when set, persists each source's cursor to
	// "<name>.cursor" after every successful poll and restores it on
	// New — the process-restart resume point. Empty = in-memory only.
	CursorDir string
	// Logger receives fetch errors and cursor-persistence failures
	// (nil → discard).
	Logger *slog.Logger

	// sleep overrides backoff waiting in tests.
	sleep func(ctx context.Context, d time.Duration)
}

// RejectStats counts URLs a source produced that were not enqueued,
// by reason. queue_full/duplicate/invalid/closed mirror the
// scheduler's rejection reasons; rate_limited is the mux's own
// rate-share shedding.
type RejectStats struct {
	QueueFull   int64 `json:"queue_full"`
	RateLimited int64 `json:"rate_limited"`
	Duplicate   int64 `json:"duplicate"`
	Invalid     int64 `json:"invalid"`
	Closed      int64 `json:"closed"`
}

func (r RejectStats) total() int64 {
	return r.QueueFull + r.RateLimited + r.Duplicate + r.Invalid + r.Closed
}

// SourceStats is one connector's counters, exported at /metrics.
type SourceStats struct {
	// Cursor is the source's current resume position.
	Cursor string `json:"cursor"`
	// LagSeconds is the time since the last successful poll — the
	// freshness gauge. -1 until the first success.
	LagSeconds float64 `json:"lag_seconds"`
	// Fetches counts successful polls; FetchErrors counts failed ones.
	Fetches     int64 `json:"fetches"`
	FetchErrors int64 `json:"fetch_errors"`
	// Items counts URLs the source produced; Enqueued counts those the
	// scheduler accepted; Rejected breaks down the difference.
	Items    int64       `json:"items"`
	Enqueued int64       `json:"enqueued"`
	Rejected RejectStats `json:"rejected"`
	// Malformed counts feed entries the connector skipped as
	// unusable (corrupt rows, mangled JSON lines).
	Malformed int64 `json:"malformed"`
}

// sourceState is the mux's mutable per-source bookkeeping.
type sourceState struct {
	src         Source
	stats       SourceStats
	lastSuccess time.Time
	tokens      float64 // rate-share bucket level
	lastRefill  time.Time
}

// Mux drives a set of Sources concurrently, fanning their URLs into
// one Sink with per-source rate shares, cross-source dedupe, cursor
// persistence, and per-source health counters. All methods are safe
// for concurrent use.
type Mux struct {
	cfg    MuxConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	states map[string]*sourceState
	recent map[string]struct{} // cross-source dedupe window
	order  []string            // FIFO eviction for recent
}

// NewMux validates the configuration, restores persisted cursors, and
// starts one polling goroutine per source. Close stops them.
func NewMux(cfg MuxConfig) (*Mux, error) {
	if cfg.Sink == nil {
		return nil, errors.New("feedsrc: MuxConfig.Sink is required")
	}
	if len(cfg.Sources) == 0 {
		return nil, errors.New("feedsrc: MuxConfig.Sources is empty")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	m := &Mux{
		cfg:    cfg,
		states: make(map[string]*sourceState, len(cfg.Sources)),
		recent: make(map[string]struct{}),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	for _, src := range cfg.Sources {
		name := src.Name()
		if name == "" {
			return nil, errors.New("feedsrc: source with empty name")
		}
		if _, dup := m.states[name]; dup {
			return nil, errors.New("feedsrc: duplicate source name " + name)
		}
		if cfg.CursorDir != "" {
			if data, err := os.ReadFile(m.cursorPath(name)); err == nil {
				src.SetCursor(string(data))
			}
		}
		m.states[name] = &sourceState{src: src, stats: SourceStats{Cursor: src.Cursor(), LagSeconds: -1}}
	}
	for _, src := range cfg.Sources {
		m.wg.Add(1)
		go m.run(m.states[src.Name()])
	}
	return m, nil
}

func (m *Mux) cursorPath(name string) string {
	return filepath.Join(m.cfg.CursorDir, name+".cursor")
}

// run is one source's poll loop: fetch, deliver, persist the cursor,
// pace. Errors back the source off exponentially (or exactly as long
// as the server's Retry-After demands) without touching its siblings.
func (m *Mux) run(st *sourceState) {
	defer m.wg.Done()
	backoff := m.cfg.Interval
	for m.ctx.Err() == nil {
		items, cursor, err := st.src.Next(m.ctx)
		if err != nil {
			if m.ctx.Err() != nil {
				return
			}
			wait := backoff
			var herr *HTTPError
			if errors.As(err, &herr) && herr.RetryAfter > 0 {
				wait = herr.RetryAfter
			}
			m.mu.Lock()
			st.stats.FetchErrors++
			m.mu.Unlock()
			m.cfg.Logger.Warn("feed source fetch failed",
				"source", st.src.Name(), "backoff", wait, "err", err)
			m.cfg.sleep(m.ctx, wait)
			if backoff *= 2; backoff > DefaultMuxBackoff {
				backoff = DefaultMuxBackoff
			}
			continue
		}
		backoff = m.cfg.Interval
		m.deliver(st, items, cursor)
		if m.cfg.CursorDir != "" {
			if err := persistCursor(m.cursorPath(st.src.Name()), cursor); err != nil {
				m.cfg.Logger.Error("feed cursor persistence failed",
					"source", st.src.Name(), "err", err)
			}
		}
		if len(items) == 0 {
			m.cfg.sleep(m.ctx, m.cfg.Interval)
		}
	}
}

// deliver pushes one batch into the sink, applying the source's rate
// share and the mux-wide dedupe window, and accounts every outcome.
func (m *Mux) deliver(st *sourceState, items []Item, cursor string) {
	name := st.src.Name()
	now := time.Now()
	m.mu.Lock()
	st.stats.Fetches++
	st.lastSuccess = now
	st.stats.Cursor = cursor
	st.stats.Items += int64(len(items))
	if mf, ok := st.src.(interface{ Malformed() int64 }); ok {
		st.stats.Malformed = mf.Malformed()
	}
	allowed := m.rateAllowLocked(st, now, len(items))
	m.mu.Unlock()

	for i, it := range items {
		if i >= allowed {
			m.mu.Lock()
			st.stats.Rejected.RateLimited += int64(len(items) - i)
			m.mu.Unlock()
			break
		}
		if !m.admitURL(it.URL) {
			m.mu.Lock()
			st.stats.Rejected.Duplicate++
			m.mu.Unlock()
			continue
		}
		err := m.cfg.Sink.EnqueueFrom(it.URL, name)
		m.mu.Lock()
		switch {
		case err == nil:
			st.stats.Enqueued++
		case errors.Is(err, feed.ErrQueueFull):
			st.stats.Rejected.QueueFull++
		case errors.Is(err, feed.ErrDuplicate):
			st.stats.Rejected.Duplicate++
		case errors.Is(err, feed.ErrInvalidURL):
			st.stats.Rejected.Invalid++
		default:
			st.stats.Rejected.Closed++
		}
		m.mu.Unlock()
	}
}

// rateAllowLocked charges the source's token bucket for up to n items,
// returning how many may pass. Tokens refill continuously at the
// configured rate with one interval's worth of burst, so a source that
// idles briefly may catch up but never exceeds its long-run share.
func (m *Mux) rateAllowLocked(st *sourceState, now time.Time, n int) int {
	rate := m.cfg.Rate
	if rate <= 0 {
		return n
	}
	burst := rate * m.cfg.Interval.Seconds()
	if burst < 1 {
		burst = 1
	}
	if st.lastRefill.IsZero() {
		st.tokens = burst
	} else {
		st.tokens += rate * now.Sub(st.lastRefill).Seconds()
		if st.tokens > burst {
			st.tokens = burst
		}
	}
	st.lastRefill = now
	allowed := int(st.tokens)
	if allowed > n {
		allowed = n
	}
	st.tokens -= float64(allowed)
	return allowed
}

// admitURL records a URL in the dedupe window, reporting false when it
// was already there. Eviction is FIFO: the window bounds memory, not
// correctness — an evicted re-delivery falls through to the
// scheduler's own in-flight dedupe and the store's supersede.
func (m *Mux) admitURL(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, seen := m.recent[url]; seen {
		return false
	}
	m.recent[url] = struct{}{}
	m.order = append(m.order, url)
	if len(m.order) > DefaultDedupeWindow {
		delete(m.recent, m.order[0])
		m.order = m.order[1:]
	}
	return true
}

// Stats snapshots every source's counters, keyed by source name.
func (m *Mux) Stats() map[string]SourceStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]SourceStats, len(m.states))
	for name, st := range m.states {
		s := st.stats
		if !st.lastSuccess.IsZero() {
			s.LagSeconds = time.Since(st.lastSuccess).Seconds()
		}
		out[name] = s
	}
	return out
}

// Close stops every source loop and waits for them to exit. Cursors
// are already persisted per poll, so Close loses nothing.
func (m *Mux) Close() error {
	m.cancel()
	m.wg.Wait()
	return nil
}

// persistCursor writes the cursor atomically (tmp + rename) so a crash
// mid-write leaves the previous cursor intact, never a torn one.
func persistCursor(path, cursor string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(cursor), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sleepCtx waits d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
