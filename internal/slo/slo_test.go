package slo

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/racecheck"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives([]string{"score:p99<250ms,avail>99.9", "feed:p50<10ms"})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	lat := objs[0]
	if lat.Name != "score:p99<250ms" || lat.Endpoint != "score" || lat.Kind != KindLatency {
		t.Errorf("objective 0 = %+v", lat)
	}
	if lat.Quantile != 99 || lat.LatencyTarget != 250*time.Millisecond {
		t.Errorf("objective 0 target = q%v %v", lat.Quantile, lat.LatencyTarget)
	}
	if got := lat.Budget(); got < 0.0099 || got > 0.0101 {
		t.Errorf("p99 budget = %v, want 0.01", got)
	}
	av := objs[1]
	if av.Kind != KindAvailability || av.AvailTarget != 99.9 {
		t.Errorf("objective 1 = %+v", av)
	}
	if got := av.Budget(); got < 0.0009 || got > 0.0011 {
		t.Errorf("avail budget = %v, want 0.001", got)
	}
	if objs[2].Endpoint != "feed" {
		t.Errorf("objective 2 = %+v", objs[2])
	}
}

func TestParseQuantileSpellings(t *testing.T) {
	objs, err := ParseObjectives([]string{"score:p999<1s"})
	if err != nil {
		t.Fatal(err)
	}
	if objs[0].Quantile != 99.9 {
		t.Errorf("p999 quantile = %v, want 99.9", objs[0].Quantile)
	}
	if got := objs[0].Target(); got != "p999<1s" {
		t.Errorf("Target() = %q, want p999<1s round trip", got)
	}
}

func TestParseObjectivesErrors(t *testing.T) {
	for _, bad := range []string{
		"",                  // empty
		"score",             // no colon
		"score:",            // no objective
		":p99<250ms",        // no endpoint
		"score:p99>250ms",   // wrong comparator
		"score:p99<",        // no duration
		"score:p99<fast",    // bad duration
		"score:p0<1ms",      // quantile out of range
		"score:avail>100",   // availability out of range
		"score:avail>-1",    // availability out of range
		"score:latency<1ms", // unknown objective kind
	} {
		if _, err := ParseObjectives([]string{bad}); err == nil {
			t.Errorf("ParseObjectives(%q) = nil error, want error", bad)
		}
	}
	// Duplicates across specs.
	if _, err := ParseObjectives([]string{"score:p99<250ms", "score:p99<250ms"}); err == nil {
		t.Error("duplicate objective accepted")
	}
}

// testClock is an atomically-settable clock.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC).UnixNano())
	return c
}
func (c *testClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// testEngine builds an engine with short windows and an injected
// clock: fast 10s, so slow 120s and hold-down 4s.
func testEngine(t *testing.T, specs ...string) (*Engine, *testClock) {
	t.Helper()
	if len(specs) == 0 {
		specs = []string{"score:p99<100ms,avail>99"}
	}
	objs, err := ParseObjectives(specs)
	if err != nil {
		t.Fatal(err)
	}
	clk := newTestClock()
	e := New(Config{
		Objectives: objs,
		FastWindow: 10 * time.Second,
		Clock:      clk.Now,
	})
	if e == nil {
		t.Fatal("New returned nil with objectives")
	}
	return e, clk
}

// drive observes n requests spread over seconds with the given
// duration/failure mix, ticking as it goes.
func drive(e *Engine, clk *testClock, seconds int, perSec int, dur time.Duration, failed bool) {
	for s := 0; s < seconds; s++ {
		for i := 0; i < perSec; i++ {
			e.Observe("score", dur, failed)
		}
		clk.Advance(time.Second)
		e.Tick()
	}
}

func TestEngineStaysOKUnderGoodTraffic(t *testing.T) {
	e, clk := testEngine(t)
	drive(e, clk, 30, 20, 10*time.Millisecond, false)
	if got := e.State(); got != StateOK {
		t.Errorf("state under good traffic = %v, want ok", got)
	}
	if got := e.ShedLevel(); got != 0 {
		t.Errorf("shed level = %d, want 0", got)
	}
	st := e.Status()
	if st.Objectives[0].FastBurn != 0 {
		t.Errorf("fast burn = %v, want 0", st.Objectives[0].FastBurn)
	}
}

func TestEnginePagesAndRecovers(t *testing.T) {
	e, clk := testEngine(t)
	j := e.Journal()

	// Healthy baseline.
	drive(e, clk, 15, 20, 10*time.Millisecond, false)
	if e.State() != StateOK {
		t.Fatalf("baseline state = %v", e.State())
	}

	// Sustained breach: every request blows the 100ms latency target.
	// Burn = 1.0/0.01 = 100× in both windows once the slow window's
	// bad fraction catches up.
	drive(e, clk, 20, 20, 500*time.Millisecond, false)
	if got := e.State(); got != StatePage {
		t.Fatalf("state under sustained breach = %v, want page", got)
	}
	if got := e.ShedLevel(); got != 3 {
		t.Errorf("shed level under 100x burn = %d, want 3", got)
	}

	// Recovery: good traffic again. State must hold (hysteresis) until
	// the burn has stayed below threshold for the 4s hold-down AND the
	// windows have drained.
	drive(e, clk, 2, 20, 10*time.Millisecond, false)
	if got := e.State(); got == StateOK {
		t.Error("state dropped to ok before hold-down expired")
	}
	drive(e, clk, 75, 20, 10*time.Millisecond, false)
	if got := e.State(); got != StateOK {
		t.Errorf("state after recovery = %v, want ok", got)
	}
	if got := e.ShedLevel(); got != 0 {
		t.Errorf("shed level after recovery = %d, want 0", got)
	}

	// The journal saw both transitions, stamped by the engine's clock.
	var sawPage, sawRecover, sawShed bool
	for _, ev := range j.Events() {
		if ev.Time.After(clk.Now()) {
			t.Errorf("event %q stamped %v, after the engine clock's %v", ev.Msg, ev.Time, clk.Now())
		}
		if ev.Type == "slo_transition" && ev.Fields["to"] == "page" {
			sawPage = true
		}
		if ev.Type == "slo_transition" && ev.Fields["to"] == "ok" {
			sawRecover = true
		}
		if ev.Type == "shed_level" {
			sawShed = true
		}
	}
	if !sawPage || !sawRecover || !sawShed {
		t.Errorf("journal missing transitions: page=%v recover=%v shed=%v events=%v",
			sawPage, sawRecover, sawShed, j.Events())
	}
}

// TestEngineFastBlipDoesNotPage: a burst shorter than the slow
// window's significance bar must not page (multi-window condition).
func TestEngineFastBlipDoesNotPage(t *testing.T) {
	e, clk := testEngine(t)
	// 50s of healthy traffic fills the slow window with good events.
	drive(e, clk, 50, 50, 10*time.Millisecond, false)
	// A 2-second blip of slow requests: the fast window burns hot but
	// the slow window (120s, mostly good) stays under the page burn.
	drive(e, clk, 2, 10, 500*time.Millisecond, false)
	if got := e.State(); got == StatePage {
		st := e.Status()
		t.Errorf("2s blip paged: fast=%v slow=%v", st.Objectives[0].FastBurn, st.Objectives[0].SlowBurn)
	}
}

func TestEngineAvailabilityObjective(t *testing.T) {
	e, clk := testEngine(t, "score:avail>99")
	// 100% failures: avail burn = 1/0.01 = 100×.
	drive(e, clk, 20, 20, time.Millisecond, true)
	if got := e.State(); got != StatePage {
		t.Errorf("state under total failure = %v, want page", got)
	}
	st := e.Status()
	if st.Objectives[0].Kind != "availability" {
		t.Errorf("kind = %q", st.Objectives[0].Kind)
	}
	if st.Objectives[0].BudgetRemaining != 0 {
		t.Errorf("budget remaining under total failure = %v, want 0", st.Objectives[0].BudgetRemaining)
	}
}

func TestEngineWarnState(t *testing.T) {
	e, clk := testEngine(t, "score:avail>99")
	// 8% failures: burn = 0.08/0.01 = 8× — above warn (6), below page
	// (14.4).
	for s := 0; s < 70; s++ {
		for i := 0; i < 100; i++ {
			e.Observe("score", time.Millisecond, i < 8)
		}
		clk.Advance(time.Second)
		e.Tick()
	}
	if got := e.State(); got != StateWarn {
		st := e.Status()
		t.Errorf("state at 8x burn = %v, want warn (fast=%v slow=%v)", got, st.Objectives[0].FastBurn, st.Objectives[0].SlowBurn)
	}
	if got := e.ShedLevel(); got != 1 {
		t.Errorf("shed level at 8x burn = %d, want 1", got)
	}
}

func TestEngineEndpointMatching(t *testing.T) {
	e, clk := testEngine(t, "score:avail>99", "*:avail>90")
	// Failures on "feed" must burn the wildcard objective only.
	drive(e, clk, 20, 0, 0, false) // warm the clock/ticks
	for s := 0; s < 20; s++ {
		for i := 0; i < 20; i++ {
			e.Observe("feed", time.Millisecond, true)
		}
		clk.Advance(time.Second)
		e.Tick()
	}
	st := e.Status()
	for _, o := range st.Objectives {
		switch o.Endpoint {
		case "score":
			if o.FastBad != 0 {
				t.Errorf("score objective saw %d bad events from feed traffic", o.FastBad)
			}
		case "*":
			if o.FastBad == 0 {
				t.Error("wildcard objective saw no bad events")
			}
		}
	}
}

func TestMinLatencyTarget(t *testing.T) {
	e, _ := testEngine(t, "score:p99<250ms,p999<1s", "batch:p99<50ms")
	d, name := e.MinLatencyTarget()
	if d != 50*time.Millisecond || name != "batch:p99<50ms" {
		t.Errorf("MinLatencyTarget = %v %q", d, name)
	}
}

func TestEngineNilSafe(t *testing.T) {
	var e *Engine
	e.Observe("score", time.Millisecond, false)
	e.Tick()
	if e.State() != StateOK || e.ShedLevel() != 0 || e.RetryAfter() != 0 {
		t.Error("nil engine not inert")
	}
	st := e.Status()
	if st.State != "ok" || len(st.Objectives) != 0 {
		t.Errorf("nil Status = %+v", st)
	}
	if got := New(Config{}); got != nil {
		t.Error("New with no objectives != nil")
	}
	if d, _ := e.MinLatencyTarget(); d != 0 {
		t.Error("nil MinLatencyTarget != 0")
	}
	if j := e.Journal(); j != nil || len(j.Events()) != 0 || j.Total() != 0 {
		t.Error("nil engine's journal not empty")
	}
}

func TestStatusDocument(t *testing.T) {
	e, clk := testEngine(t)
	drive(e, clk, 5, 10, time.Millisecond, false)
	st := e.Status()
	if st.FastWindowMS != 10_000 || st.SlowWindowMS != 120_000 || st.HoldDownMS != 4_000 {
		t.Errorf("windows = %d/%d ms, hold-down %d ms", st.FastWindowMS, st.SlowWindowMS, st.HoldDownMS)
	}
	if st.PageBurn != DefaultPageBurn || st.WarnBurn != DefaultWarnBurn {
		t.Errorf("burn thresholds = %v/%v", st.PageBurn, st.WarnBurn)
	}
	if st.Ticks != 5 {
		t.Errorf("ticks = %d, want 5", st.Ticks)
	}
	names := make([]string, 0, len(st.Objectives))
	for _, o := range st.Objectives {
		names = append(names, o.Name)
	}
	if strings.Join(names, " ") != "score:avail>99 score:p99<100ms" {
		t.Errorf("objective order = %v (want sorted by name)", names)
	}
}

// TestDerivedWindows pins the engine's shape at the two fast windows
// in use: the default (5m) keeps the 1h slow window and 2m hold-down
// the engine has always had, and the overload smoke's 5s gets 60s and
// 2s.
func TestDerivedWindows(t *testing.T) {
	objs, err := ParseObjectives([]string{"score:p99<250ms"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fast           time.Duration
		slowMS, holdMS int64
	}{
		{0, 3_600_000, 120_000},
		{5 * time.Minute, 3_600_000, 120_000},
		{5 * time.Second, 60_000, 2_000},
	} {
		st := New(Config{Objectives: objs, FastWindow: tc.fast}).Status()
		if st.SlowWindowMS != tc.slowMS || st.HoldDownMS != tc.holdMS {
			t.Errorf("fast window %v: slow_window_ms %d, hold_down_ms %d; want %d, %d",
				tc.fast, st.SlowWindowMS, st.HoldDownMS, tc.slowMS, tc.holdMS)
		}
	}
}

// TestObserveAllocs pins the hot-path contract: Observe must not
// allocate.
func TestObserveAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	e, _ := testEngine(t)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Observe("score", 5*time.Millisecond, false)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v per run, want 0", allocs)
	}
}
