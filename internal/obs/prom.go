package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair.
type Label struct {
	Name, Value string
}

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4): `# HELP` / `# TYPE` headers followed by samples. Errors are
// sticky; check Err once after the last write.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header writes the HELP and TYPE lines of one metric family; follow it
// with Sample (or HistFromHist) lines under the same name, one per label
// set. help is escaped per the exposition grammar (backslash and
// newline).
func (p *PromWriter) Header(name, help, typ string) {
	help = strings.ReplaceAll(help, `\`, `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line of a family begun with Header.
func (p *PromWriter) Sample(name string, v float64, labels ...Label) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	writeLabels(&sb, labels)
	sb.WriteByte(' ')
	sb.WriteString(formatValue(v))
	sb.WriteByte('\n')
	_, p.err = io.WriteString(p.w, sb.String())
}

func writeLabels(sb *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// escapeLabelValue escapes backslash, double quote and newline, the
// three characters the exposition grammar requires escaping inside a
// label value.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value; Prometheus accepts Go's shortest
// float form plus the +Inf/-Inf/NaN spellings.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter writes one unlabeled counter family.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.Header(name, help, "counter")
	p.Sample(name, v)
}

// Gauge writes one unlabeled gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Header(name, help, "gauge")
	p.Sample(name, v)
}

// Family writes one family of the given type with one sample per key,
// labelled label=keys[i] and valued value(i).
func (p *PromWriter) Family(name, help, typ, label string, keys []string, value func(i int) float64) {
	p.Header(name, help, typ)
	for i, k := range keys {
		p.Sample(name, value(i), Label{label, k})
	}
}

// HistFromHist renders one histogram snapshot as Prometheus histogram
// samples in seconds, with the given extra labels on every line. The
// snapshot is a stable copy, so the +Inf bucket equals the rendered
// _count and a scrape is always internally consistent even while
// observations land concurrently.
func (p *PromWriter) HistFromHist(name string, labels []Label, h HistSnapshot) {
	var cum [NumBuckets]int64
	count, sumUS := h.Cumulative(&cum)
	lbs := make([]Label, len(labels), len(labels)+1)
	copy(lbs, labels)
	for i := 0; i < NumBuckets-1; i++ {
		bound := float64(BucketBoundUS(i)) / 1e6
		p.Sample(name+"_bucket", float64(cum[i]), append(lbs, Label{"le", formatValue(bound)})...)
	}
	p.Sample(name+"_bucket", float64(count), append(lbs, Label{"le", "+Inf"})...)
	p.Sample(name+"_sum", float64(sumUS)/1e6, labels...)
	p.Sample(name+"_count", float64(count), labels...)
}

// Histogram renders one complete unlabeled histogram family from a
// snapshot.
func (p *PromWriter) Histogram(name, help string, h HistSnapshot) {
	p.Header(name, help, "histogram")
	p.HistFromHist(name, nil, h)
}

// ---------------------------------------------------------------------
// Go runtime metrics (runtime/metrics re-exposed in Prometheus form).

// runtimeSamples is the fixed sample set WriteRuntimeMetrics reads.
// Declared once so every scrape reuses the descriptors.
var runtimeSamples = []metrics.Sample{
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
}

// WriteRuntimeMetrics appends the Go runtime gauges and the GC pause
// histogram: live goroutines, heap object bytes, cumulative allocated
// bytes, GC cycle count, and stop-the-world pause latencies. The pause
// histogram's _sum is approximated from bucket midpoints (the runtime
// histogram carries no exact sum); counts and bounds are exact.
func (p *PromWriter) WriteRuntimeMetrics() {
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			p.Gauge("go_goroutines", "Number of live goroutines.", float64(s.Value.Uint64()))
		case "/memory/classes/heap/objects:bytes":
			p.Gauge("go_heap_objects_bytes", "Bytes occupied by live heap objects.", float64(s.Value.Uint64()))
		case "/gc/heap/allocs:bytes":
			p.Counter("go_heap_allocs_bytes_total", "Cumulative bytes allocated on the heap.", float64(s.Value.Uint64()))
		case "/gc/cycles/total:gc-cycles":
			p.Counter("go_gc_cycles_total", "Completed GC cycles.", float64(s.Value.Uint64()))
		case "/gc/pauses:seconds":
			p.float64Histogram("go_gc_pause_seconds",
				"Stop-the-world GC pause latencies (sum approximated from bucket midpoints).",
				s.Value.Float64Histogram())
		}
	}
}

// float64Histogram renders a runtime/metrics float64 histogram. The
// runtime's bucket boundaries may open with -Inf and close with +Inf;
// each finite upper bound becomes a cumulative le bucket.
func (p *PromWriter) float64Histogram(name, help string, h *metrics.Float64Histogram) {
	if h == nil {
		return
	}
	p.Header(name, help, "histogram")
	var cum uint64
	var sum float64
	for i, n := range h.Counts {
		cum += n
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if !math.IsInf(hi, 1) {
			p.Sample(name+"_bucket", float64(cum), Label{"le", formatValue(hi)})
		}
		if n > 0 && !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
			sum += float64(n) * (lo + hi) / 2
		}
	}
	p.Sample(name+"_bucket", float64(cum), Label{"le", "+Inf"})
	p.Sample(name+"_sum", sum)
	p.Sample(name+"_count", float64(cum))
}
