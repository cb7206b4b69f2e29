package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample: the smallest value with at least q of the sample at
// or below it. An empty sample reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailQuantiles are the tail percentiles a report may quote, highest
// first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.90}

// supported reports whether at least ten samples lie beyond the
// q-quantile's rank: a tail percentile read off fewer is one request's
// luck, not a property of the system.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// tail returns the highest quotable percentile of an ascending sample
// and its value; ok is false when not even p90 has ten samples beyond it.
func tail(sorted []float64) (q, v float64, ok bool) {
	for _, q := range tailQuantiles {
		if supported(len(sorted), q) {
			return q, percentile(sorted, q), true
		}
	}
	return 0, 0, false
}

// median returns the middle of the values (mean of the middle two for an
// even count) without reordering the caller's slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := ascending(values)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the three cut points of at least two values as
// Python's statistics.quantiles(values, n=4) does, which is how the
// driver reads the spread of ten runs: the i-th lies at position
// i*(n+1)/4 of the ascending sample, interpolated between neighbours.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := ascending(values)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ascending(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// micros converts durations to ascending microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---------------------------------------------------------------------
// Spans.

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder was made; Parent is the ID of the span that caused
// it (0 for a root) and Req the request all its spans share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (r *recorder) begin(req, parent int, name string) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name})
	r.spans[len(r.spans)-1].Start = time.Since(r.t0).Nanoseconds()
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = time.Since(r.t0).Nanoseconds() }

// selfTimes returns each span's duration minus its children's, by span
// ID. A child here is a re-run of part of its parent's work rather than
// an interval nested inside it, so the children's durations are
// subtracted whole; a parent its re-run children outlast reads 0.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// layerStat summarises the spans of one name, in microseconds.
type layerStat struct {
	n            int
	p50, selfP50 float64
	tailQ, tailV float64 // tailQ is 0 when no tail percentile is supported
}

func layerStats(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
	}
	out := make(map[string]layerStat, len(durs))
	for name, d := range durs {
		sort.Float64s(d)
		st := layerStat{n: len(d), p50: percentile(d, 0.5), selfP50: median(selfs[name])}
		if q, v, ok := tail(d); ok {
			st.tailQ, st.tailV = q, v
		}
		out[name] = st
	}
	return out
}
