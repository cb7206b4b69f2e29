package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the bucket count of a latency histogram. Bucket i
// covers latencies in [2^i, 2^(i+1)) microseconds (bucket 0 also takes
// 0 µs); the last bucket is open-ended, catching everything from ~34 s
// up.
const NumBuckets = 26

// bucketOf returns the bucket holding a latency of us microseconds
// (us >= 0).
func bucketOf(us int64) int {
	b := bits.Len64(uint64(us)) - 1
	if b < 0 {
		return 0
	}
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// BucketBoundUS returns bucket i's inclusive upper bound in
// microseconds; the last bucket reports -1 (open-ended, rendered as
// +Inf by the Prometheus writer).
func BucketBoundUS(i int) int64 {
	if i >= NumBuckets-1 {
		return -1
	}
	return int64(1) << uint(i+1)
}

// sumMax is the part of a histogram its counter width does not change.
type sumMax struct {
	sumUS atomic.Int64
	// maxUS tracks the largest observation so the open-ended last
	// bucket (and any bucket bound past the data) can report a real
	// value instead of its theoretical 2^26 µs ≈ 67 s upper bound.
	maxUS atomic.Int64
}

func (m *sumMax) add(us int64) {
	m.sumUS.Add(us)
	for {
		cur := m.maxUS.Load()
		if us <= cur || m.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

func (m *sumMax) addTo(snap *HistSnapshot) {
	snap.SumUS += m.sumUS.Load()
	if v := m.maxUS.Load(); v > snap.MaxUS {
		snap.MaxUS = v
	}
}

// hist is the since-boot histogram of a WindowedHist: a lock-free
// exponential latency histogram with 64-bit counts.
type hist struct {
	buckets [NumBuckets]atomic.Int64
	sumMax
}

// add records one observation of us microseconds in bucket b.
func (h *hist) add(b int, us int64) {
	h.buckets[b].Add(1)
	h.sumMax.add(us)
}

// addTo folds the histogram's current counts into snap. The read is not
// atomic across buckets; the snapshot's count is the sum of the buckets
// it read, so it is always consistent with itself.
func (h *hist) addTo(snap *HistSnapshot) {
	for i := range h.buckets {
		c := h.buckets[i].Load()
		snap.Buckets[i] += c
		snap.N += c
	}
	h.sumMax.addTo(snap)
}

// slotHist is a ring slot's histogram: hist with 32-bit bucket counts,
// which window.go shows cannot overflow.
type slotHist struct {
	buckets [NumBuckets]atomic.Uint32
	sumMax
}

func (h *slotHist) add(b int, us int64) {
	h.buckets[b].Add(1)
	h.sumMax.add(us)
}

// reset zeroes the slot for reuse, atomic per field only: the ring
// resets only slots a full ring period stale, so the slop is at most a
// racing sample at a slot boundary, which no percentile can see.
func (h *slotHist) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sumUS.Store(0)
	h.maxUS.Store(0)
}

// addTo is hist.addTo for a slot. A count widens to int64 straight from
// uint32, so a full bucket reads 2^32−1, never a negative number.
func (h *slotHist) addTo(snap *HistSnapshot) {
	for i := range h.buckets {
		c := int64(h.buckets[i].Load())
		snap.Buckets[i] += c
		snap.N += c
	}
	h.sumMax.addTo(snap)
}

// HistSnapshot is a point-in-time merge of one or more histograms — a
// plain value with no atomics, so window reads compose slots into one
// and every statistic (JSON percentiles, Prometheus buckets, kptop) is
// computed on a stable copy.
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

// Merge folds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i, c := range o.Buckets {
		s.Buckets[i] += c
	}
	s.N += o.N
	s.SumUS += o.SumUS
	if o.MaxUS > s.MaxUS {
		s.MaxUS = o.MaxUS
	}
}

// NearestRank returns the 1-based rank of the p-th percentile (p in
// [0, 100]) of n samples by the nearest-rank rule: the ⌈p·n/100⌉-th
// smallest, clamped to [1, n]. A product a rounding error above an
// integer (0.07*100 is 7.000000000000001) counts as that integer.
func NearestRank(p float64, n int64) int64 {
	x := p / 100 * float64(n)
	r := int64(math.Ceil(x - x*1e-12))
	if r < 1 {
		return 1
	}
	if r > n {
		return n
	}
	return r
}

// Percentile returns the upper bound (µs) of the bucket holding the
// p-th percentile observation (NearestRank), 0 when empty. The bound is
// clamped to the largest observation seen, so the open-ended last
// bucket — whose theoretical bound of 2^26 µs ≈ 67 s would otherwise be
// reported no matter the true value — and a one-sample histogram both
// answer with a number the data supports. Below the last bucket the
// answer is never under the exact nearest-rank percentile and, for an
// exact value of 1 µs or more, never over twice it.
func (s HistSnapshot) Percentile(p float64) int64 {
	if s.N == 0 {
		return 0
	}
	rank := NearestRank(p, s.N)
	var seen int64
	for b := 0; b < NumBuckets-1; b++ {
		seen += s.Buckets[b]
		if seen >= rank {
			return min(BucketBoundUS(b), s.MaxUS)
		}
	}
	return s.MaxUS
}

// Cumulative fills cum with the cumulative bucket counts (cum[i] =
// observations at or below bucket i's bound) and returns the total
// count and microsecond sum. The last entry equals the count.
func (s HistSnapshot) Cumulative(cum *[NumBuckets]int64) (count, sumUS int64) {
	var run int64
	for i, c := range s.Buckets {
		run += c
		cum[i] = run
	}
	return run, s.SumUS
}
