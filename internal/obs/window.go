package obs

import (
	"sync/atomic"
	"time"
)

// This file is the windowed-telemetry layer: time-bucketed rings of
// the cumulative primitives (Hist, good/bad counters) that answer
// "what is p99 *right now*" instead of "since boot". The design is a
// power-of-two ring of slots, each stamped with the absolute slot
// index (epoch) its data belongs to. Rotation is lazy and lock-free:
// the first observer landing in a slot whose epoch is stale CAS-claims
// it and resets it — there is no background ticker, no rotation work
// on idle rings, and the hot path stays allocation-free. Slots left
// behind by an idle gap are never cleared; their stale epochs simply
// exclude them from window reads, so expiry is correct by
// construction.
//
// Concurrency contract: everything is atomics, so the rings are
// race-detector clean, but windows are operational aggregates, not
// ledgers. An observation racing a slot rotation (the observer loaded
// the epoch a full ring-period ago and only now increments) can land
// in the slot's next occupancy, and a reader can catch a slot
// mid-reset. Both misplace at most the racing samples at a slot
// boundary — invisible to a percentile, and the ring periods (64 s
// fine, 64 min coarse) make the first case require a goroutine stalled
// for over a minute between two adjacent instructions.

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

// HistSnapshot is a point-in-time merge of one or more histograms — a
// plain value with no atomics, so window reads compose slots into one
// and percentile math runs on a stable copy.
type HistSnapshot struct {
	Buckets [NumBuckets]int64
	N       int64
	SumUS   int64
	MaxUS   int64
}

// Count returns the number of observations in the snapshot.
func (s HistSnapshot) Count() int64 { return s.N }

// Mean returns the mean observation in microseconds, 0 when empty.
func (s HistSnapshot) Mean() int64 {
	if s.N == 0 {
		return 0
	}
	return s.SumUS / s.N
}

// Percentile returns the upper bound (µs) of the bucket holding the
// p-th percentile observation, 0 when empty. p in [0, 100]. The bound
// is clamped to the largest observation seen by any merged histogram,
// so the open-ended last bucket — whose theoretical bound of 2^26 µs ≈
// 67 s would otherwise be reported no matter the true value — and a
// one-sample histogram both answer with a number the data supports.
func (s HistSnapshot) Percentile(p float64) int64 {
	if s.N == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(s.N))
	if rank >= s.N {
		rank = s.N - 1
	}
	var seen int64
	for b := 0; b < NumBuckets; b++ {
		seen += s.Buckets[b]
		if seen > rank {
			if b == NumBuckets-1 {
				return s.MaxUS
			}
			bound := int64(1) << uint(b+1)
			if bound > s.MaxUS {
				bound = s.MaxUS
			}
			return bound
		}
	}
	return s.MaxUS
}

// histSlot is one ring slot: the absolute slot index its data belongs
// to, plus the histogram itself.
type histSlot struct {
	epoch atomic.Int64
	h     Hist
}

// claim rotates the slot to epoch abs if it is stale. Returns false
// when the slot already carries data from the future (an observer
// using an older clock reading than a racing one — drop rather than
// pollute the newer slot).
func (s *histSlot) claim(abs int64) bool {
	for {
		e := s.epoch.Load()
		if e == abs {
			return true
		}
		if e > abs {
			return false
		}
		if s.epoch.CompareAndSwap(e, abs) {
			s.h.Reset()
			return true
		}
	}
}

// WindowedHist records durations into two slot rings — fine (1 s
// slots) for sub-minute windows, coarse (1 min slots) for the 5 m and
// 1 h windows — and composes any trailing window into a HistSnapshot.
// The clock is injectable for tests; construct with NewWindowedHist.
// All methods are nil-receiver safe so unwired surfaces cost one
// branch.
type WindowedHist struct {
	clock  func() time.Time
	fine   [fineSlots]histSlot
	coarse [coarseSlots]histSlot
}

// NewWindowedHist builds a windowed histogram. clock nil means
// time.Now.
func NewWindowedHist(clock func() time.Time) *WindowedHist {
	if clock == nil {
		clock = time.Now
	}
	return &WindowedHist{clock: clock}
}

// Observe records one duration into the current fine and coarse slots.
// Allocation-free and safe for concurrent use. Nil-safe no-op.
func (w *WindowedHist) Observe(d time.Duration) {
	if w == nil {
		return
	}
	now := w.clock().UnixNano()
	if abs := now / int64(fineSlotDur); w.fine[abs&(fineSlots-1)].claim(abs) {
		w.fine[abs&(fineSlots-1)].h.Observe(d)
	}
	if abs := now / int64(coarseSlotDur); w.coarse[abs&(coarseSlots-1)].claim(abs) {
		w.coarse[abs&(coarseSlots-1)].h.Observe(d)
	}
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
	now := w.clock().UnixNano()
	if window <= fineSlots*fineSlotDur {
		sumSlots(w.fine[:], now, window, fineSlotDur, &snap)
	} else {
		sumSlots(w.coarse[:], now, window, coarseSlotDur, &snap)
	}
	return snap
}

// sumSlots folds every slot whose epoch falls inside the trailing
// window into snap. Slots with stale epochs (idle gaps, data older
// than one ring period) are skipped, which is what makes expiry
// correct without ever clearing memory eagerly.
func sumSlots(slots []histSlot, nowNS int64, window, slotDur time.Duration, snap *HistSnapshot) {
	absNow := nowNS / int64(slotDur)
	k := int64((window + slotDur - 1) / slotDur)
	if k > int64(len(slots)) {
		k = int64(len(slots))
	}
	for i := int64(0); i < k; i++ {
		abs := absNow - i
		if abs < 0 {
			break
		}
		s := &slots[abs&int64(len(slots)-1)]
		if s.epoch.Load() != abs {
			continue
		}
		s.h.addTo(snap)
	}
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

// counterSlot is one ring slot of good/bad counts.
type counterSlot struct {
	epoch atomic.Int64
	good  atomic.Int64
	bad   atomic.Int64
}

func (s *counterSlot) claim(abs int64) bool {
	for {
		e := s.epoch.Load()
		if e == abs {
			return true
		}
		if e > abs {
			return false
		}
		if s.epoch.CompareAndSwap(e, abs) {
			s.good.Store(0)
			s.bad.Store(0)
			return true
		}
	}
}

// WindowedCounter counts good/bad events in a single slot ring sized
// to cover its longest window at construction. Add is allocation-free;
// Totals reads any trailing window up to the ring span.
type WindowedCounter struct {
	clock   func() time.Time
	slotDur time.Duration
	slots   []counterSlot
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
	return &WindowedCounter{clock: clock, slotDur: slotDur, slots: make([]counterSlot, n)}
}

// Add records one event. Allocation-free; nil-safe no-op.
func (c *WindowedCounter) Add(bad bool) {
	if c == nil {
		return
	}
	abs := c.clock().UnixNano() / int64(c.slotDur)
	s := &c.slots[abs&int64(len(c.slots)-1)]
	if !s.claim(abs) {
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
	absNow := c.clock().UnixNano() / int64(c.slotDur)
	k := int64((window + c.slotDur - 1) / c.slotDur)
	if k > int64(len(c.slots)) {
		k = int64(len(c.slots))
	}
	for i := int64(0); i < k; i++ {
		abs := absNow - i
		if abs < 0 {
			break
		}
		s := &c.slots[abs&int64(len(c.slots)-1)]
		if s.epoch.Load() != abs {
			continue
		}
		good += s.good.Load()
		bad += s.bad.Load()
	}
	return good, bad
}
