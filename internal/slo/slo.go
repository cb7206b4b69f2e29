// Package slo tracks service-level objectives as multi-window,
// multi-burn-rate error budgets, Google-SRE-style. An objective is a
// latency quantile target ("score:p99<250ms") or an availability
// floor ("score:avail>99.9") on one endpoint class; the engine turns
// every completed request into a good/bad service-level-indicator
// event in a windowed counter ring, and a periodic Tick evaluates the
// budget burn rate over a fast window (is it happening *now*?) and a
// slow window (is it *significant*?) to drive an ok → warn → page
// state machine with hysteretic recovery.
//
// Burn rate is the budget-normalized error rate: with a 99.9%
// availability target the error budget is 0.1%, so a 1.44% bad
// fraction burns at 14.4× — the rate that exhausts a 30-day budget in
// ~2 days, the canonical paging threshold. Paging requires the burn to
// exceed the threshold over BOTH windows, so a brief blip (fast window
// only) and yesterday's recovered incident (slow window only) both
// stay quiet.
//
// The engine also drives overload response: ShedLevel distills the
// fast-window burn into 0..3 (nothing / shed background / shed batch /
// shed everything sheddable), which the serving layer's admission
// controller maps to priority classes. The level rises the tick the
// burn crosses a threshold and falls only after the burn has stayed
// below it for the hold-down, so shedding does not flap at the
// boundary.
//
// Observe is allocation-free and safe for concurrent use; every
// method is nil-receiver safe so an unconfigured server wires a nil
// *Engine everywhere and pays one branch.
package slo

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knowphish/internal/obs"
)

// Kind is the objective flavor.
type Kind uint8

const (
	// KindLatency targets a latency quantile: bad = request slower
	// than the target (or failed).
	KindLatency Kind = iota
	// KindAvailability targets a success fraction: bad = request
	// failed (5xx). Deliberately shed requests are not observed at
	// all — shedding to protect an SLO must not itself burn the
	// budget, or the controller death-spirals.
	KindAvailability
)

func (k Kind) String() string {
	if k == KindAvailability {
		return "availability"
	}
	return "latency"
}

// Objective is one parsed SLO target.
type Objective struct {
	// Name is the canonical spec string, e.g. "score:p99<250ms" —
	// the objective label in /debug/slo, Prometheus and the journal.
	Name string
	// Endpoint is the endpoint class the objective watches ("score",
	// "batch", "feed", ...; "*" watches every observed endpoint).
	Endpoint string
	Kind     Kind
	// Quantile is the latency quantile in percent (99 for p99); the
	// error budget is what the quantile leaves: 1% for p99.
	Quantile float64
	// LatencyTarget is the quantile's bound (KindLatency).
	LatencyTarget time.Duration
	// AvailTarget is the availability floor in percent
	// (KindAvailability); the error budget is its complement.
	AvailTarget float64
}

// Budget returns the objective's error budget as a fraction in (0, 1):
// the bad-event fraction the objective tolerates.
func (o Objective) Budget() float64 {
	if o.Kind == KindAvailability {
		return 1 - o.AvailTarget/100
	}
	return 1 - o.Quantile/100
}

// Target renders the target half of the spec ("p99<250ms",
// "avail>99.9").
func (o Objective) Target() string {
	if o.Kind == KindAvailability {
		return fmt.Sprintf("avail>%g", o.AvailTarget)
	}
	return fmt.Sprintf("p%s<%s", quantileSuffix(o.Quantile), o.LatencyTarget)
}

func quantileSuffix(q float64) string {
	// p99.9 is spelled p999 in the flag grammar.
	s := strconv.FormatFloat(q, 'f', -1, 64)
	return strings.ReplaceAll(s, ".", "")
}

// ParseObjectives parses -slo flag values. Each spec is
//
//	endpoint:objective[,objective...]
//
// where an objective is pNN<duration (p50, p95, p99, p999) or
// avail>percent. Example: "score:p99<250ms,avail>99.9". The endpoint
// "*" applies to every endpoint class the server observes. Multiple
// specs accumulate; duplicate objectives (same endpoint and target)
// are rejected.
func ParseObjectives(specs []string) ([]Objective, error) {
	var out []Objective
	seen := map[string]bool{}
	for _, spec := range specs {
		endpoint, rest, ok := strings.Cut(spec, ":")
		if !ok || endpoint == "" || rest == "" {
			return nil, fmt.Errorf("slo spec %q: want endpoint:objective[,objective...]", spec)
		}
		endpoint = strings.TrimSpace(endpoint)
		for _, part := range strings.Split(rest, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			obj, err := parseObjective(endpoint, part)
			if err != nil {
				return nil, fmt.Errorf("slo spec %q: %w", spec, err)
			}
			if seen[obj.Name] {
				return nil, fmt.Errorf("slo spec %q: duplicate objective %s", spec, obj.Name)
			}
			seen[obj.Name] = true
			out = append(out, obj)
		}
	}
	return out, nil
}

func parseObjective(endpoint, part string) (Objective, error) {
	switch {
	case strings.HasPrefix(part, "p"):
		qs, ds, ok := strings.Cut(part[1:], "<")
		if !ok {
			return Objective{}, fmt.Errorf("objective %q: want pNN<duration", part)
		}
		q, err := parseQuantile(qs)
		if err != nil {
			return Objective{}, fmt.Errorf("objective %q: %w", part, err)
		}
		d, err := time.ParseDuration(ds)
		if err != nil || d <= 0 {
			return Objective{}, fmt.Errorf("objective %q: bad duration %q", part, ds)
		}
		return Objective{
			Name:          endpoint + ":p" + qs + "<" + ds,
			Endpoint:      endpoint,
			Kind:          KindLatency,
			Quantile:      q,
			LatencyTarget: d,
		}, nil
	case strings.HasPrefix(part, "avail>"):
		ps := part[len("avail>"):]
		p, err := strconv.ParseFloat(ps, 64)
		if err != nil || p <= 0 || p >= 100 {
			return Objective{}, fmt.Errorf("objective %q: availability must be in (0, 100)", part)
		}
		return Objective{
			Name:        endpoint + ":avail>" + ps,
			Endpoint:    endpoint,
			Kind:        KindAvailability,
			AvailTarget: p,
		}, nil
	default:
		return Objective{}, fmt.Errorf("objective %q: want pNN<duration or avail>percent", part)
	}
}

// parseQuantile maps the flag spelling to percent: "50" → 50,
// "99" → 99, "999" → 99.9 (three digits read as NN.N).
func parseQuantile(s string) (float64, error) {
	if len(s) == 3 && !strings.Contains(s, ".") {
		s = s[:2] + "." + s[2:]
	}
	q, err := strconv.ParseFloat(s, 64)
	if err != nil || q <= 0 || q >= 100 {
		return 0, fmt.Errorf("bad quantile %q (want 50, 95, 99, 999, ...)", s)
	}
	return q, nil
}

// State is one objective's (and the engine's worst) alert state.
type State int32

const (
	StateOK State = iota
	StateWarn
	StatePage
)

func (s State) String() string {
	switch s {
	case StatePage:
		return "page"
	case StateWarn:
		return "warn"
	default:
		return "ok"
	}
}

// Defaults for Config zero values, and the fixed burn-rate thresholds.
const (
	DefaultFastWindow = 5 * time.Minute
	// DefaultPageBurn is the paging burn rate: 14.4× exhausts a 30-day
	// budget in 50 hours — incident-now territory.
	DefaultPageBurn = 14.4
	// DefaultWarnBurn is the ticket-level burn rate: 6× exhausts a
	// 30-day budget in 5 days.
	DefaultWarnBurn = 6.0
)

// Config assembles an Engine.
type Config struct {
	Objectives []Objective
	// FastWindow is the "is it happening now" burn window
	// (0 → DefaultFastWindow). The "is it significant" slow window is
	// 12× it and the recovery hold-down 2/5 of it: 1 h and 2 m at 5 m.
	FastWindow time.Duration
	// Clock is the time source, for deterministic tests (nil →
	// time.Now).
	Clock func() time.Time
}

// tracked is one objective plus its live SLI counters and state.
type tracked struct {
	obj     Objective
	counter *obs.WindowedCounter

	mu        sync.Mutex
	state     State
	since     time.Time // state entered
	lastHigh  time.Time // last tick the computed target was >= state
	fastBurn  float64
	slowBurn  float64
	fastGood  int64
	fastBad   int64
	slowGood  int64
	slowBad   int64
	lastTrans uint64 // transition count, for tests and Prometheus
}

// Engine evaluates objectives. Construct with New; nil engines are
// inert.
type Engine struct {
	cfg        Config
	slowWindow time.Duration // 12 × FastWindow
	holdDown   time.Duration // 2/5 × FastWindow
	clock      func() time.Time
	objs       []*tracked
	// journal records state transitions and shed-level changes, stamped
	// with the tick's clock reading.
	journal *obs.Journal

	// shedLevel is atomic, not under mu: the admission controller
	// loads it on every request.
	shedLevel atomic.Int32

	mu       sync.Mutex
	worst    State
	shedHigh time.Time // last tick the computed shed target was >= level
	ticks    uint64
}

// New builds an engine; returns nil when no objectives are configured,
// which every method treats as "SLOs off".
func New(cfg Config) *Engine {
	if len(cfg.Objectives) == 0 {
		return nil
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = DefaultFastWindow
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	e := &Engine{cfg: cfg, slowWindow: 12 * cfg.FastWindow, holdDown: cfg.FastWindow * 2 / 5, clock: clock, journal: obs.NewJournal()}
	// Slot resolution: fine enough that the fast window spans several
	// slots (burn reacts within a fraction of the window), floored at
	// 1 s by the counter itself.
	slotDur := cfg.FastWindow / 10
	now := clock()
	for _, obj := range cfg.Objectives {
		e.objs = append(e.objs, &tracked{
			obj:      obj,
			counter:  obs.NewWindowedCounter(e.slowWindow, slotDur, clock),
			since:    now,
			lastHigh: now,
		})
	}
	e.shedHigh = now
	return e
}

// Objectives returns the configured objectives (nil-safe).
func (e *Engine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	out := make([]Objective, len(e.objs))
	for i, t := range e.objs {
		out[i] = t.obj
	}
	return out
}

// MinLatencyTarget returns the tightest latency target across
// objectives, 0 when none — what the tracer's slow-exemplar threshold
// derives from. The second result names the objective. Nil-safe.
func (e *Engine) MinLatencyTarget() (time.Duration, string) {
	if e == nil {
		return 0, ""
	}
	var best time.Duration
	var name string
	for _, t := range e.objs {
		if t.obj.Kind != KindLatency {
			continue
		}
		if best == 0 || t.obj.LatencyTarget < best {
			best = t.obj.LatencyTarget
			name = t.obj.Name
		}
	}
	return best, name
}

// Observe records one completed request against every objective
// watching its endpoint class. failed marks a server-side failure
// (5xx). Allocation-free; nil-safe no-op. Deliberately shed requests
// must NOT be observed — see KindAvailability.
func (e *Engine) Observe(endpoint string, dur time.Duration, failed bool) {
	if e == nil {
		return
	}
	for _, t := range e.objs {
		if t.obj.Endpoint != endpoint && t.obj.Endpoint != "*" {
			continue
		}
		bad := failed
		if !bad && t.obj.Kind == KindLatency {
			bad = dur > t.obj.LatencyTarget
		}
		t.counter.Add(bad)
	}
}

// burn returns the budget-normalized bad fraction: 0 with no traffic.
func burn(good, bad int64, budget float64) float64 {
	total := good + bad
	if total == 0 || budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// Tick evaluates every objective once: recomputes window burns, steps
// the state machines (instantly up, hold-down-gated down) and the shed
// level. Run calls it on an interval; tests call it directly after
// advancing an injected clock. Nil-safe no-op.
func (e *Engine) Tick() {
	if e == nil {
		return
	}
	now := e.clock()
	worst := StateOK
	maxFastBurn := 0.0
	for _, t := range e.objs {
		budget := t.obj.Budget()
		fg, fb := t.counter.Totals(e.cfg.FastWindow)
		sg, sb := t.counter.Totals(e.slowWindow)
		fastBurn := burn(fg, fb, budget)
		slowBurn := burn(sg, sb, budget)
		if fastBurn > maxFastBurn {
			maxFastBurn = fastBurn
		}

		// Multi-window condition: both windows must agree before the
		// state rises — the fast window proves it is happening now,
		// the slow window that it is eating real budget.
		target := StateOK
		switch {
		case fastBurn >= DefaultPageBurn && slowBurn >= DefaultPageBurn:
			target = StatePage
		case fastBurn >= DefaultWarnBurn && slowBurn >= DefaultWarnBurn:
			target = StateWarn
		}

		t.mu.Lock()
		t.fastBurn, t.slowBurn = fastBurn, slowBurn
		t.fastGood, t.fastBad = fg, fb
		t.slowGood, t.slowBad = sg, sb
		prev := t.state
		cur := hold(prev, target, &t.lastHigh, now, e.holdDown)
		if cur != prev {
			t.state = cur
			t.since = now
			t.lastTrans++
		}
		t.mu.Unlock()
		if cur != prev {
			e.journal.Record(now, "slo_transition", "slo "+t.obj.Name+" "+prev.String()+" -> "+cur.String(),
				"objective", t.obj.Name,
				"from", prev.String(),
				"to", cur.String(),
				"fast_burn", strconv.FormatFloat(fastBurn, 'f', 2, 64),
				"slow_burn", strconv.FormatFloat(slowBurn, 'f', 2, 64),
			)
		}
		if cur > worst {
			worst = cur
		}
	}

	// Shed level follows the worst fast-window burn alone: overload
	// response must react within seconds, before the slow window
	// confirms — shedding early and recovering hysteretically is
	// cheaper than a queue collapse.
	shedTarget := int32(0)
	switch {
	case maxFastBurn >= 2*DefaultPageBurn:
		shedTarget = 3
	case maxFastBurn >= DefaultPageBurn:
		shedTarget = 2
	case maxFastBurn >= DefaultWarnBurn:
		shedTarget = 1
	}

	e.mu.Lock()
	e.ticks++
	e.worst = worst
	prevShed := e.shedLevel.Load()
	curShed := hold(prevShed, shedTarget, &e.shedHigh, now, e.holdDown)
	e.shedLevel.Store(curShed)
	e.mu.Unlock()
	if curShed != prevShed {
		e.journal.Record(now, "shed_level", "admission shed level "+strconv.Itoa(int(prevShed))+" -> "+strconv.Itoa(int(curShed)),
			"from", strconv.Itoa(int(prevShed)),
			"to", strconv.Itoa(int(curShed)),
			"max_fast_burn", strconv.FormatFloat(maxFastBurn, 'f', 2, 64),
		)
	}
}

// hold is the engine's one hysteresis rule, for objective states and
// the shed level: a level rises to target at once and falls to it only
// holdDown after high, the last tick whose target was at or above it.
func hold[L ~int32](cur, target L, high *time.Time, now time.Time, holdDown time.Duration) L {
	if target >= cur {
		*high = now
	} else if now.Sub(*high) < holdDown {
		return cur
	}
	return target
}

// Run ticks the engine once a second until ctx is done. Nil-safe no-op
// (returns immediately).
func (e *Engine) Run(ctx context.Context) {
	if e == nil {
		return
	}
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.Tick()
		}
	}
}

// Journal returns the event journal the engine records its state
// transitions and shed-level changes into, served at GET /debug/events.
// Nil-safe (nil, which reads as an empty journal).
func (e *Engine) Journal() *obs.Journal {
	if e == nil {
		return nil
	}
	return e.journal
}

// State returns the worst objective state as of the last Tick.
// Nil-safe (StateOK).
func (e *Engine) State() State {
	if e == nil {
		return StateOK
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.worst
}

// ShedLevel returns the admission shed level 0..3 as of the last
// Tick: 0 sheds nothing, 3 sheds every sheddable priority class. One
// atomic load — safe on every request's admission path. Nil-safe (0).
func (e *Engine) ShedLevel() int {
	if e == nil {
		return 0
	}
	return int(e.shedLevel.Load())
}

// RetryAfter suggests how long a shed caller should back off: half
// the fast window (the soonest the burn can meaningfully decay),
// clamped to [1s, 60s]. Nil-safe (0).
func (e *Engine) RetryAfter() time.Duration {
	if e == nil {
		return 0
	}
	d := e.cfg.FastWindow / 2
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// ObjectiveStatus is one objective's rendering in the /debug/slo
// document.
type ObjectiveStatus struct {
	Name     string    `json:"name"`
	Endpoint string    `json:"endpoint"`
	Kind     string    `json:"kind"`
	Target   string    `json:"target"`
	State    string    `json:"state"`
	Since    time.Time `json:"since"`
	// FastBurn / SlowBurn are the budget-normalized burn rates over
	// the two windows; 1.0 burns exactly the budget.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// BudgetRemaining is the slow-window budget fraction left:
	// max(0, 1 - slow_burn).
	BudgetRemaining float64 `json:"budget_remaining"`
	FastGood        int64   `json:"fast_good"`
	FastBad         int64   `json:"fast_bad"`
	SlowGood        int64   `json:"slow_good"`
	SlowBad         int64   `json:"slow_bad"`
	Transitions     uint64  `json:"transitions"`
}

// Status is the /debug/slo document.
type Status struct {
	State        string            `json:"state"`
	ShedLevel    int               `json:"shed_level"`
	FastWindowMS int64             `json:"fast_window_ms"`
	SlowWindowMS int64             `json:"slow_window_ms"`
	PageBurn     float64           `json:"page_burn"`
	WarnBurn     float64           `json:"warn_burn"`
	HoldDownMS   int64             `json:"hold_down_ms"`
	Ticks        uint64            `json:"ticks"`
	Objectives   []ObjectiveStatus `json:"objectives"`
}

// Status renders the engine for /debug/slo and the /metrics slo
// subtree. Nil-safe (zero document with empty objective list).
func (e *Engine) Status() Status {
	if e == nil {
		return Status{State: StateOK.String(), Objectives: []ObjectiveStatus{}}
	}
	e.mu.Lock()
	st := Status{
		State:        e.worst.String(),
		ShedLevel:    int(e.shedLevel.Load()),
		FastWindowMS: e.cfg.FastWindow.Milliseconds(),
		SlowWindowMS: e.slowWindow.Milliseconds(),
		PageBurn:     DefaultPageBurn,
		WarnBurn:     DefaultWarnBurn,
		HoldDownMS:   e.holdDown.Milliseconds(),
		Ticks:        e.ticks,
	}
	e.mu.Unlock()
	st.Objectives = make([]ObjectiveStatus, 0, len(e.objs))
	for _, t := range e.objs {
		t.mu.Lock()
		rem := 1 - t.slowBurn
		if rem < 0 {
			rem = 0
		}
		st.Objectives = append(st.Objectives, ObjectiveStatus{
			Name:            t.obj.Name,
			Endpoint:        t.obj.Endpoint,
			Kind:            t.obj.Kind.String(),
			Target:          t.obj.Target(),
			State:           t.state.String(),
			Since:           t.since,
			FastBurn:        t.fastBurn,
			SlowBurn:        t.slowBurn,
			BudgetRemaining: rem,
			FastGood:        t.fastGood,
			FastBad:         t.fastBad,
			SlowGood:        t.slowGood,
			SlowBad:         t.slowBad,
			Transitions:     t.lastTrans,
		})
		t.mu.Unlock()
	}
	sort.Slice(st.Objectives, func(i, j int) bool { return st.Objectives[i].Name < st.Objectives[j].Name })
	return st
}
