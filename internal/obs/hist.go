package obs

import (
	"sync/atomic"
	"time"
)

// NumBuckets is the bucket count of a Hist. Bucket i covers latencies
// in [2^i, 2^(i+1)) microseconds; the last bucket is open-ended,
// catching everything from ~34 s up.
const NumBuckets = 26

// Hist is a lock-free exponential latency histogram. Percentiles read
// from bucket counts are approximate (within a factor of two, the
// bucket width), which is what operational dashboards need. The zero
// value is ready to use; all methods are safe for concurrent use.
type Hist struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
	// maxUS tracks the largest observation so the open-ended last
	// bucket (and any bucket bound past the data) can report a real
	// value instead of its theoretical 2^26 µs ≈ 67 s upper bound.
	maxUS atomic.Int64
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := 0
	for v := us; v > 1 && b < NumBuckets-1; v >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// MaxUS returns the largest observation in microseconds.
func (h *Hist) MaxUS() int64 { return h.maxUS.Load() }

// Percentile returns the upper bound (µs) of the bucket containing the
// p-th percentile observation, 0 when empty. p in [0, 100]. The rule —
// including the clamp to the largest observation recorded — is
// HistSnapshot.Percentile, applied to the current counts.
func (h *Hist) Percentile(p float64) int64 { return h.snapshot().Percentile(p) }

// Reset zeroes the histogram for reuse. It is atomic per field, not
// across the histogram: observations racing a reset may be partially
// retained (a bucket increment surviving while the count was cleared,
// or vice versa). The windowed-histogram ring calls Reset only on
// slots a full ring-period stale, where in-flight observers are gone;
// the residual slop is one sample at a slot boundary, which a
// dashboard percentile cannot see.
func (h *Hist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumUS.Store(0)
	h.maxUS.Store(0)
}

// addTo folds the histogram's current counts into snap. Like
// Cumulative, the read is not atomic across buckets.
func (h *Hist) addTo(snap *HistSnapshot) {
	var n int64
	for i := 0; i < NumBuckets; i++ {
		c := h.buckets[i].Load()
		snap.Buckets[i] += c
		n += c
	}
	snap.N += n
	snap.SumUS += h.sumUS.Load()
	if m := h.maxUS.Load(); m > snap.MaxUS {
		snap.MaxUS = m
	}
}

// snapshot copies the current counts into a plain value, the form every
// read-side statistic is computed on.
func (h *Hist) snapshot() HistSnapshot {
	var snap HistSnapshot
	h.addTo(&snap)
	return snap
}

// Mean returns the mean observation in microseconds, 0 when empty.
func (h *Hist) Mean() int64 { return h.snapshot().Mean() }

// BucketBoundUS returns bucket i's inclusive upper bound in
// microseconds; the last bucket reports -1 (open-ended, rendered as
// +Inf by the Prometheus writer).
func BucketBoundUS(i int) int64 {
	if i >= NumBuckets-1 {
		return -1
	}
	return int64(1) << uint(i+1)
}

// Cumulative fills cum with the cumulative bucket counts (cum[i] =
// observations at or below bucket i's bound) and returns the total
// count and microsecond sum. The snapshot is not atomic across
// buckets; concurrent observes can make the total differ from the last
// cumulative entry by in-flight observations, which the caller must
// reconcile (the Prometheus writer pins +Inf to the cumulative total).
func (h *Hist) Cumulative(cum *[NumBuckets]int64) (count, sumUS int64) {
	var run int64
	for i := 0; i < NumBuckets; i++ {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	return run, h.sumUS.Load()
}
