package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// This file is the windowed-telemetry layer: time-bucketed rings that
// answer "what is p99 *right now*" next to "since boot". One ring type
// serves both users — latency histograms (WindowedHist) and good/bad
// counters (WindowedCounter). A ring is a power-of-two array of slots,
// each stamped with the absolute slot index (epoch) its data belongs
// to. Rotation is lazy: the first observer landing in a slot whose
// epoch is stale CAS-claims it, resets it and then publishes the new
// epoch, while observers racing it wait out the reset — there is no
// background ticker, no rotation work on idle rings, and the hot path
// stays allocation-free. Slots left behind by an idle gap are never
// cleared; their stale epochs simply exclude them from window reads, so
// expiry is correct by construction.
//
// A histogram pays only for the windows it has used: its first Observe
// allocates its rings, and a ring slot counts in 32 bits, 128 bytes
// with its epoch. A slot cannot overflow: one bucket of a 1 min slot
// would need 2^32 observations, about 71 million a second. The
// since-boot histogram, which never resets, keeps 64-bit counts.
//
// Concurrency contract: everything is atomics, so the rings are
// race-detector clean, but windows are operational aggregates, not
// ledgers. An observation racing a slot rotation (the observer loaded
// the epoch a full ring-period ago and only now increments) can land
// in the slot's next occupancy. That misplaces at most the racing
// samples — invisible to a percentile, and the ring periods (64 s
// fine, 64 min coarse) make it require a goroutine stalled for over a
// minute between two adjacent instructions. A reader skips a slot
// mid-reset, as its epoch matches no window.

const (
	// fineSlots x fineSlotDur covers windows up to 64 s at 1 s
	// resolution (the 1 m window).
	fineSlots   = 64
	fineSlotDur = time.Second
	// coarseSlots x coarseSlotDur covers windows up to 64 min at 1 min
	// resolution (the 5 m and 1 h windows).
	coarseSlots   = 64
	coarseSlotDur = time.Minute
)

// The standard dashboard windows. Window() accepts any duration; these
// are the ones the /metrics document and kptop render.
const (
	Window1m = time.Minute
	Window5m = 5 * time.Minute
	Window1h = time.Hour
)

// resettable is the slot payload constraint: a pointer to T that can
// zero itself when its slot is claimed for a new epoch.
type resettable[T any] interface {
	*T
	reset()
}

// slot is one ring slot: the absolute slot index its data belongs to,
// plus the data.
type slot[T any] struct {
	epoch atomic.Int64
	data  T
}

// ring is an epoch-stamped slot ring of len(slots) (a power of two)
// slots of slotDur each.
type ring[T any, P resettable[T]] struct {
	slotDur time.Duration
	slots   []slot[T]
}

func newRing[T any, P resettable[T]](n int, slotDur time.Duration) ring[T, P] {
	return ring[T, P]{slotDur: slotDur, slots: make([]slot[T], n)}
}

// claiming is the epoch a slot carries while its claimer resets it.
// Publishing the new epoch only after the reset keeps a racing observer
// from adding into the slot and then having its sample wiped.
const claiming = -1

// at returns the data of the slot covering nowNS, rotating the slot to
// that epoch if it is stale. Returns nil when the slot already carries
// data from the future (an observer using an older clock reading than a
// racing one — drop rather than pollute the newer slot).
func (r *ring[T, P]) at(nowNS int64) *T {
	abs := nowNS / int64(r.slotDur)
	s := &r.slots[abs&int64(len(r.slots)-1)]
	for {
		e := s.epoch.Load()
		if e == abs {
			return &s.data
		}
		if e == claiming {
			runtime.Gosched()
			continue
		}
		if e > abs {
			return nil
		}
		if s.epoch.CompareAndSwap(e, claiming) {
			P(&s.data).reset()
			s.epoch.Store(abs)
			return &s.data
		}
	}
}

// each calls f on every slot whose epoch falls inside the trailing
// window ending at nowNS (including the current partial slot), capped
// at the ring span. Slots with stale epochs (idle gaps, data older than
// one ring period) are skipped, which is what makes expiry correct
// without ever clearing memory eagerly.
func (r *ring[T, P]) each(nowNS int64, window time.Duration, f func(*T)) {
	absNow := nowNS / int64(r.slotDur)
	k := int64((window + r.slotDur - 1) / r.slotDur)
	if k > int64(len(r.slots)) {
		k = int64(len(r.slots))
	}
	for i := int64(0); i < k; i++ {
		abs := absNow - i
		if abs < 0 {
			break
		}
		s := &r.slots[abs&int64(len(r.slots)-1)]
		if s.epoch.Load() == abs {
			f(&s.data)
		}
	}
}

// histRings holds a WindowedHist's 128 slots in one 16 KB allocation (a
// Go size class); a histRing is a view of either ring, built on use.
type histRing = ring[slotHist, *slotHist]

type histRings struct {
	fine   [fineSlots]slot[slotHist]
	coarse [coarseSlots]slot[slotHist]
}

func (rs *histRings) fineRing() histRing   { return histRing{fineSlotDur, rs.fine[:]} }
func (rs *histRings) coarseRing() histRing { return histRing{coarseSlotDur, rs.coarse[:]} }

// WindowedHist is the latency estimator: one since-boot histogram plus
// two slot rings — fine (1 s slots) for sub-minute windows, coarse
// (1 min slots) for the 5 m and 1 h windows. Observe computes the
// bucket once and feeds all three; SinceBoot and Window read them back
// as HistSnapshots. It costs what it records: about 250 bytes until the
// first Observe installs the rings, about 16.6 KB after. The clock is
// injectable for tests; construct with NewWindowedHist. All methods are
// nil-receiver safe so unwired surfaces cost one branch.
type WindowedHist struct {
	clock func() time.Time
	total hist
	rings atomic.Pointer[histRings] // nil until the first Observe
}

// NewWindowedHist builds a windowed histogram. clock nil means
// time.Now.
func NewWindowedHist(clock func() time.Time) *WindowedHist {
	if clock == nil {
		clock = time.Now
	}
	return &WindowedHist{clock: clock}
}

// Observe records one duration (negative durations count as 0) into
// the since-boot histogram and the current fine and coarse slots.
// Safe for concurrent use; allocation-free but for the first call,
// whose CAS installs the rings (a racing loser uses the winner's).
// Nil-safe no-op.
func (w *WindowedHist) Observe(d time.Duration) {
	if w == nil {
		return
	}
	us := max(d.Microseconds(), 0)
	b := bucketOf(us)
	w.total.add(b, us)
	rs := w.rings.Load()
	if rs == nil {
		w.rings.CompareAndSwap(nil, new(histRings))
		rs = w.rings.Load()
	}
	now := w.clock().UnixNano()
	for _, r := range [...]histRing{rs.fineRing(), rs.coarseRing()} {
		if h := r.at(now); h != nil {
			h.add(b, us)
		}
	}
}

// SinceBoot snapshots every observation since construction. Nil-safe
// (zero snapshot).
func (w *WindowedHist) SinceBoot() HistSnapshot {
	var snap HistSnapshot
	if w != nil {
		w.total.addTo(&snap)
	}
	return snap
}

// Window merges the slots covering the trailing window (including the
// current partial slot) into a snapshot. Windows at or under the fine
// ring's span read 1 s slots; longer windows read 1 min slots and are
// capped at the coarse ring's 64 min span. Nil-safe (zero snapshot).
func (w *WindowedHist) Window(window time.Duration) HistSnapshot {
	var snap HistSnapshot
	if w == nil || window <= 0 {
		return snap
	}
	rs := w.rings.Load()
	if rs == nil {
		return snap
	}
	r := rs.fineRing()
	if window > fineSlots*fineSlotDur {
		r = rs.coarseRing()
	}
	r.each(w.clock().UnixNano(), window, func(h *slotHist) { h.addTo(&snap) })
	return snap
}

// WindowSummary is the rendered form of one window's percentiles, as
// published under /metrics and consumed by kptop.
type WindowSummary struct {
	Window string `json:"window"`
	Count  int64  `json:"count"`
	MeanUS int64  `json:"mean_us"`
	P50US  int64  `json:"p50_us"`
	P99US  int64  `json:"p99_us"`
	P999US int64  `json:"p999_us"`
}

// Summaries renders the standard dashboard windows (1m, 5m, 1h).
// Nil-safe (nil slice).
func (w *WindowedHist) Summaries() []WindowSummary {
	if w == nil {
		return nil
	}
	out := make([]WindowSummary, 0, 3)
	for _, win := range []struct {
		name string
		d    time.Duration
	}{{"1m", Window1m}, {"5m", Window5m}, {"1h", Window1h}} {
		snap := w.Window(win.d)
		out = append(out, WindowSummary{
			Window: win.name,
			Count:  snap.Count(),
			MeanUS: snap.Mean(),
			P50US:  snap.Percentile(50),
			P99US:  snap.Percentile(99),
			P999US: snap.Percentile(99.9),
		})
	}
	return out
}

// ---------------------------------------------------------------------
// WindowedCounter: good/bad event counts over trailing windows — the
// SLI substrate of the SLO engine's burn-rate math.

// goodBad is one counter slot's payload.
type goodBad struct {
	good, bad atomic.Int64
}

func (c *goodBad) reset() {
	c.good.Store(0)
	c.bad.Store(0)
}

// WindowedCounter counts good/bad events in a single slot ring sized
// to cover its longest window at construction. Add is allocation-free;
// Totals reads any trailing window up to the ring span.
type WindowedCounter struct {
	clock func() time.Time
	ring  ring[goodBad, *goodBad]
}

// NewWindowedCounter builds a counter ring covering at least span with
// slots of slotDur (minimum 1 s; the slot count rounds up to a power
// of two). clock nil means time.Now.
func NewWindowedCounter(span, slotDur time.Duration, clock func() time.Time) *WindowedCounter {
	if clock == nil {
		clock = time.Now
	}
	if slotDur < time.Second {
		slotDur = time.Second
	}
	n := 1
	for time.Duration(n)*slotDur < span {
		n <<= 1
	}
	// One extra doubling so the trailing window plus the current
	// partial slot always fits.
	n <<= 1
	return &WindowedCounter{clock: clock, ring: newRing[goodBad](n, slotDur)}
}

// Add records one event. Allocation-free; nil-safe no-op.
func (c *WindowedCounter) Add(bad bool) {
	if c == nil {
		return
	}
	s := c.ring.at(c.clock().UnixNano())
	if s == nil {
		return
	}
	if bad {
		s.bad.Add(1)
	} else {
		s.good.Add(1)
	}
}

// Totals returns the good/bad counts over the trailing window
// (including the current partial slot), capped at the ring span.
// Nil-safe (zeros).
func (c *WindowedCounter) Totals(window time.Duration) (good, bad int64) {
	if c == nil || window <= 0 {
		return 0, 0
	}
	c.ring.each(c.clock().UnixNano(), window, func(s *goodBad) {
		good += s.good.Load()
		bad += s.bad.Load()
	})
	return good, bad
}
