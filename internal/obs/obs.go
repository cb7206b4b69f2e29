// Package obs is the zero-dependency observability layer: per-request
// pipeline tracing, one latency estimator (WindowedHist: an exponential
// histogram kept since boot and over trailing 1 m/5 m/1 h windows, read
// through HistSnapshot), Prometheus text exposition and
// structured-logging setup. Every serving and ingestion
// layer threads through it — the serve handlers start a Trace per
// request and turn each verdict's stage timings into spans (Stages),
// the feed scheduler traces crawl → score → persist the same way, and
// the /metrics and /debug/traces endpoints read the aggregates back
// out. The detector itself (internal/core) never sees a trace.
//
// The design constraint is the repository's zero-allocation contract:
// with tracing disabled (or no trace on the context) the hot scoring
// path must not allocate. Traces are pooled and fixed-size — a Trace
// holds up to MaxSpans spans inline, the ring buffer and exemplar
// reservoir store value copies — so the traced path allocates only
// when a request context is wrapped, and the untraced path costs one
// context lookup of a zero-size key.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of a traced request.
type Stage uint8

// The pipeline stages, in execution order: the feed's fetch, core's
// scoring stages, and the store append that persists the verdict.
const (
	StageCrawl Stage = iota
	StageAnalyze
	StageExtract
	StageScore
	StageIdentify
	StageExplain
	StageStoreAppend
	numStages
)

var stageNames = [numStages]string{
	"crawl", "analyze", "extract", "score", "identify", "explain", "store_append",
}

// String returns the stage's wire name (the Prometheus stage label and
// the /debug/traces span name).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames lists every stage wire name in execution order.
func StageNames() []string { return stageNames[:] }

// MaxSpans is the per-trace span capacity. A scored request uses at
// most one span per stage; spans past the capacity are counted as
// dropped rather than grown onto the heap.
const MaxSpans = 8

// Span is one recorded pipeline stage of a trace.
type Span struct {
	Stage Stage
	// OffsetNS is the span start relative to the trace start.
	OffsetNS int64
	DurNS    int64
}

// Trace is one in-flight traced request. Traces are pooled: obtain one
// from Tracer.StartRequest, attach it to the request context, and
// return it with Tracer.Finish. All methods are nil-receiver safe so
// instrumented code never branches on "is tracing on".
type Trace struct {
	id     [16]byte
	spanID [8]byte
	// parent is the caller's span id from an accepted traceparent
	// header (zero when the trace was locally rooted).
	parent    [8]byte
	hasParent bool
	endpoint  string
	start     time.Time
	spans     [MaxSpans]Span
	nspans    uint8
	dropped   uint8
	err       bool
}

// Span records one completed stage: start is the stage's wall-clock
// start, durNS its duration. Nil-safe no-op without a trace.
func (t *Trace) Span(stage Stage, start time.Time, durNS int64) {
	if t == nil {
		return
	}
	t.span(stage, start.Sub(t.start).Nanoseconds(), durNS)
}

// Stages records one scoring pass as spans laid end to end from start,
// in pipeline order: analyze, extract, score, identify, explain, each as
// long as its measured duration (core.StageTimings). A zero duration is
// a stage that did not run and records no span. Nil-safe no-op without
// a trace.
func (t *Trace) Stages(start time.Time, analyze, extract, score, identify, explain int64) {
	if t == nil {
		return
	}
	off := start.Sub(t.start).Nanoseconds()
	for i, d := range [...]int64{analyze, extract, score, identify, explain} {
		if d > 0 {
			t.span(StageAnalyze+Stage(i), off, d)
			off += d
		}
	}
}

func (t *Trace) span(stage Stage, offNS, durNS int64) {
	if int(t.nspans) >= MaxSpans {
		t.dropped++
		return
	}
	t.spans[t.nspans] = Span{Stage: stage, OffsetNS: offNS, DurNS: durNS}
	t.nspans++
}

// SetError marks the trace as failed; failed traces are retained in
// the exemplar reservoir regardless of latency. Nil-safe.
func (t *Trace) SetError() {
	if t != nil {
		t.err = true
	}
}

// TraceID returns the hex trace id ("" without a trace).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return hex.EncodeToString(t.id[:])
}

// Traceparent renders the W3C traceparent header for this trace —
// version 00, the request's trace-id, this server's span-id, sampled.
// Responses echo it so callers can stitch the server's spans into
// their own traces. Nil-safe ("").
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], t.id[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], t.spanID[:])
	buf[52], buf[53], buf[54] = '-', '0', '1'
	return string(buf[:])
}

// traceKey is the context key of the active trace. A zero-size key
// makes ctx.Value allocation-free, which is what keeps the untraced
// hot path at zero allocations.
type traceKey struct{}

// ContextWithTrace attaches tr to ctx. A nil trace returns ctx
// unchanged.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace attached to ctx, nil when the request is
// untraced. The lookup is allocation-free.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Tracer retention and the default for Config's zero value.
const (
	// DefaultRingSize is the recent-trace retention of the ring buffer.
	DefaultRingSize = 256
	// DefaultExemplarSize is the slow/error exemplar retention.
	DefaultExemplarSize = 64
	// DefaultSlowThreshold marks a trace as a slow exemplar.
	DefaultSlowThreshold = 250 * time.Millisecond
)

// Config assembles a Tracer.
type Config struct {
	// SlowThreshold is the duration at which a finished trace is
	// retained as a slow exemplar (0 → DefaultSlowThreshold).
	SlowThreshold time.Duration
	// SlowSource names where SlowThreshold came from when it was
	// derived rather than set explicitly — e.g. the SLO objective
	// ("slo:score p99<250ms") whose target it tracks. Slow exemplars
	// carry it as slow_slo so an operator reading /debug/traces knows
	// which budget the trace was burning.
	SlowSource string
	// Clock feeds the windowed per-stage histograms, for deterministic
	// tests (nil → time.Now). Trace timestamps always use time.Now.
	Clock func() time.Time
}

// record is the retained value copy of a finished trace. Fixed-size so
// retention is a struct copy into a preallocated slot, never an
// allocation on the request path.
type record struct {
	Trace
	durNS int64
	slow  bool
}

// Tracer records request traces into a fixed-size ring buffer plus a
// reservoir of slow/error exemplars, and aggregates per-stage latency
// histograms. All methods are safe for concurrent use and nil-receiver
// safe, so an unconfigured server can pass a nil *Tracer everywhere: a
// nil tracer is the off switch.
type Tracer struct {
	slowNS  int64
	slowSrc string

	pool sync.Pool

	// idState seeds trace/span id generation: a splitmix64 walk from a
	// startup-time seed. Uniqueness is what matters, not secrecy.
	idState atomic.Uint64

	started  atomic.Int64
	finished atomic.Int64
	slow     atomic.Int64
	errors   atomic.Int64
	dropped  atomic.Int64 // spans dropped for exceeding MaxSpans

	stages [numStages]*WindowedHist

	mu       sync.Mutex
	ring     []record
	ringN    uint64 // total finishes; ring slot = ringN % len(ring)
	exemplar []record
	exN      uint64
}

// NewTracer builds a tracer.
func NewTracer(cfg Config) *Tracer {
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	t := &Tracer{
		slowNS:   cfg.SlowThreshold.Nanoseconds(),
		slowSrc:  cfg.SlowSource,
		ring:     make([]record, DefaultRingSize),
		exemplar: make([]record, DefaultExemplarSize),
	}
	for i := range t.stages {
		t.stages[i] = NewWindowedHist(cfg.Clock)
	}
	t.pool.New = func() any { return new(Trace) }
	t.idState.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// SlowThreshold returns the slow-exemplar threshold (0 when nil).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.slowNS)
}

// nextID advances the splitmix64 id stream.
func (t *Tracer) nextID() uint64 {
	x := t.idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // all-zero ids are invalid in W3C trace context
	}
	return x
}

// StartRequest begins a trace for one request. endpoint labels the
// trace (use a static route string, not a user-controlled one);
// traceparent, when it carries a valid W3C header, roots the trace in
// the caller's trace-id and records the caller's span as parent.
// Returns ctx with the trace attached. When the tracer is nil it
// returns ctx unchanged and a nil trace — every downstream call is
// nil-safe, so callers never branch.
func (t *Tracer) StartRequest(ctx context.Context, endpoint, traceparent string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	tr := t.pool.Get().(*Trace)
	*tr = Trace{endpoint: endpoint, start: time.Now()}
	if id, parent, ok := parseTraceparent(traceparent); ok {
		tr.id = id
		tr.parent = parent
		tr.hasParent = true
	} else {
		a, b := t.nextID(), t.nextID()
		binary.BigEndian.PutUint64(tr.id[:8], a)
		binary.BigEndian.PutUint64(tr.id[8:], b)
	}
	binary.BigEndian.PutUint64(tr.spanID[:], t.nextID())
	t.started.Add(1)
	return ContextWithTrace(ctx, tr), tr
}

// Finish completes a trace: retains it in the ring buffer (and the
// exemplar reservoir when it was slow or failed), folds its spans into
// the per-stage histograms, and returns the trace to the pool. The
// trace must not be used afterwards. Nil-safe no-op.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	durNS := time.Since(tr.start).Nanoseconds()
	t.finished.Add(1)
	if tr.dropped > 0 {
		t.dropped.Add(int64(tr.dropped))
	}
	for i := uint8(0); i < tr.nspans; i++ {
		sp := tr.spans[i]
		if int(sp.Stage) < int(numStages) {
			t.stages[sp.Stage].Observe(time.Duration(sp.DurNS))
		}
	}
	slow := durNS >= t.slowNS
	if slow {
		t.slow.Add(1)
	}
	if tr.err {
		t.errors.Add(1)
	}
	rec := record{Trace: *tr, durNS: durNS, slow: slow}
	t.mu.Lock()
	t.ring[t.ringN%uint64(len(t.ring))] = rec
	t.ringN++
	if slow || tr.err {
		t.exemplar[t.exN%uint64(len(t.exemplar))] = rec
		t.exN++
	}
	t.mu.Unlock()
	t.pool.Put(tr)
}

// StageWindow exposes one stage's latency histogram (nil when the
// tracer is nil) — the since-boot and "p99 right now" source for
// /metrics and kptop.
func (t *Tracer) StageWindow(s Stage) *WindowedHist {
	if t == nil || int(s) >= int(numStages) {
		return nil
	}
	return t.stages[s]
}

// ---------------------------------------------------------------------
// Introspection documents (/debug/traces, /metrics tracing summary).

// SpanDoc is one span of a TraceDoc.
type SpanDoc struct {
	Stage    string `json:"stage"`
	OffsetUS int64  `json:"offset_us"`
	DurUS    int64  `json:"dur_us"`
}

// TraceDoc is one retained trace in the /debug/traces document.
type TraceDoc struct {
	TraceID string `json:"trace_id"`
	// ParentSpanID is the caller's span id when the trace arrived with
	// a traceparent header.
	ParentSpanID string    `json:"parent_span_id,omitempty"`
	Endpoint     string    `json:"endpoint"`
	Start        time.Time `json:"start"`
	DurUS        int64     `json:"dur_us"`
	Error        bool      `json:"error,omitempty"`
	SpansDropped int       `json:"spans_dropped,omitempty"`
	// SlowSLO names the SLO objective whose latency target this trace
	// breached, on slow exemplars when the slow threshold was derived
	// from an SLO (Config.SlowSource).
	SlowSLO string    `json:"slow_slo,omitempty"`
	Spans   []SpanDoc `json:"spans"`
}

// StageSummary is one stage's latency aggregate: cumulative since
// boot, plus the trailing dashboard windows.
type StageSummary struct {
	Stage   string          `json:"stage"`
	Count   int64           `json:"count"`
	MeanUS  int64           `json:"mean_us"`
	P50US   int64           `json:"p50_us"`
	P99US   int64           `json:"p99_us"`
	MaxUS   int64           `json:"max_us"`
	Windows []WindowSummary `json:"windows,omitempty"`
}

// Summary is the tracing aggregate folded into /metrics.
type Summary struct {
	Enabled      bool           `json:"enabled"`
	Started      int64          `json:"started"`
	Finished     int64          `json:"finished"`
	Slow         int64          `json:"slow"`
	Errors       int64          `json:"errors"`
	SpansDropped int64          `json:"spans_dropped"`
	SlowThreshMS int64          `json:"slow_threshold_ms"`
	SlowSource   string         `json:"slow_source,omitempty"`
	RetainedRing int            `json:"retained_recent"`
	RetainedSlow int            `json:"retained_exemplars"`
	Stages       []StageSummary `json:"stages"`
}

// Debug is the /debug/traces document.
type Debug struct {
	Summary   Summary    `json:"summary"`
	Recent    []TraceDoc `json:"recent"`
	Exemplars []TraceDoc `json:"exemplars"`
}

// Summary captures the tracing aggregates. Nil-safe (zero Summary).
func (t *Tracer) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	ringN, exN := t.ringN, t.exN
	t.mu.Unlock()
	s := Summary{
		Enabled:      true,
		Started:      t.started.Load(),
		Finished:     t.finished.Load(),
		Slow:         t.slow.Load(),
		Errors:       t.errors.Load(),
		SpansDropped: t.dropped.Load(),
		SlowThreshMS: t.slowNS / int64(time.Millisecond),
		SlowSource:   t.slowSrc,
		RetainedRing: int(min(ringN, uint64(len(t.ring)))),
		RetainedSlow: int(min(exN, uint64(len(t.exemplar)))),
	}
	s.Stages = make([]StageSummary, 0, numStages)
	for st := Stage(0); st < numStages; st++ {
		w := t.stages[st]
		h := w.SinceBoot()
		s.Stages = append(s.Stages, StageSummary{
			Stage:   st.String(),
			Count:   h.Count(),
			MeanUS:  h.Mean(),
			P50US:   h.Percentile(50),
			P99US:   h.Percentile(99),
			MaxUS:   h.MaxUS,
			Windows: w.Summaries(),
		})
	}
	return s
}

// Snapshot renders the full /debug/traces document, newest first in
// both lists. Nil-safe (zero document).
func (t *Tracer) Snapshot() Debug {
	if t == nil {
		return Debug{Recent: []TraceDoc{}, Exemplars: []TraceDoc{}}
	}
	d := Debug{Summary: t.Summary()}
	t.mu.Lock()
	d.Recent = renderRing(t.ring, t.ringN, t.slowSrc)
	d.Exemplars = renderRing(t.exemplar, t.exN, t.slowSrc)
	t.mu.Unlock()
	return d
}

// renderRing converts a ring's retained records to documents, newest
// first. Called with the tracer lock held. slowSrc tags slow records
// with the SLO their threshold derives from.
func renderRing(ring []record, n uint64, slowSrc string) []TraceDoc {
	count := int(min(n, uint64(len(ring))))
	out := make([]TraceDoc, 0, count)
	for i := 0; i < count; i++ {
		rec := &ring[(n-1-uint64(i))%uint64(len(ring))]
		doc := TraceDoc{
			TraceID:      hex.EncodeToString(rec.id[:]),
			Endpoint:     rec.endpoint,
			Start:        rec.start,
			DurUS:        rec.durNS / int64(time.Microsecond),
			Error:        rec.err,
			SpansDropped: int(rec.dropped),
			Spans:        make([]SpanDoc, 0, rec.nspans),
		}
		if rec.hasParent {
			doc.ParentSpanID = hex.EncodeToString(rec.parent[:])
		}
		if rec.slow && slowSrc != "" {
			doc.SlowSLO = slowSrc
		}
		for j := uint8(0); j < rec.nspans; j++ {
			sp := rec.spans[j]
			doc.Spans = append(doc.Spans, SpanDoc{
				Stage:    sp.Stage.String(),
				OffsetUS: sp.OffsetNS / int64(time.Microsecond),
				DurUS:    sp.DurNS / int64(time.Microsecond),
			})
		}
		out = append(out, doc)
	}
	return out
}

// ---------------------------------------------------------------------
// W3C trace context plumbing.

// parseTraceparent accepts the W3C header "00-<32 hex>-<16 hex>-<2
// hex>": version 00, a nonzero trace-id, a nonzero parent span-id.
// Anything else — wrong shape, future version, zero ids — is rejected
// and the trace is locally rooted instead.
func parseTraceparent(h string) (id [16]byte, parent [8]byte, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return id, parent, false
	}
	if _, err := hex.Decode(id[:], []byte(h[3:35])); err != nil {
		return id, parent, false
	}
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil {
		return id, parent, false
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return id, parent, false
	}
	if allZero(id[:]) || allZero(parent[:]) {
		return id, parent, false
	}
	return id, parent, true
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
