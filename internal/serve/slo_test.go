package serve

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/obs"
	"knowphish/internal/racecheck"
	"knowphish/internal/slo"
	"knowphish/internal/target"
)

// sloClock is a settable fake clock shared by the SLO engine and the
// server's windowed histograms, so an overload episode can be driven
// through burn, page and recovery without real sleeps.
type sloClock struct{ ns atomic.Int64 }

func newSLOClock() *sloClock {
	c := &sloClock{}
	c.ns.Store(time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *sloClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *sloClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// sloServer builds a server wired to an SLO engine with short windows
// (fast 10s, so slow 120s and hold-down 4s) over the given objective
// specs.
func sloServer(t *testing.T, clock *sloClock, specs ...string) (*Server, *slo.Engine, *obs.Journal) {
	t.Helper()
	c, d := fixtures(t)
	objs, err := slo.ParseObjectives(specs)
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	eng := slo.New(slo.Config{
		Objectives: objs,
		FastWindow: 10 * time.Second,
		Clock:      clock.Now,
	})
	s, err := New(Config{
		Detector:   d,
		Identifier: target.New(c.Engine),
		SLO:        eng,
		Clock:      clock.Now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, eng, eng.Journal()
}

// drive feeds n SLI events for endpoint into the engine.
func drive(eng *slo.Engine, endpoint string, n int, failed bool) {
	for i := 0; i < n; i++ {
		eng.Observe(endpoint, time.Millisecond, failed)
	}
}

// TestOverloadEpisode walks one full overload episode through the HTTP
// surface: healthy serving → budget burn → page state with shedding
// (503 + Retry-After, ops surfaces still answering) → recovery back to
// ok with shedding disengaged — with the journal recording the
// transitions.
func TestOverloadEpisode(t *testing.T) {
	clock := newSLOClock()
	s, eng, _ := sloServer(t, clock, "score:avail>99")
	c, _ := fixtures(t)
	snap := c.PhishTest.Examples[0].Snapshot

	// Healthy: good traffic, state ok, scoring works.
	drive(eng, "score", 100, false)
	eng.Tick()
	if st := eng.State(); st != slo.StateOK {
		t.Fatalf("healthy state = %v, want ok", st)
	}
	if code := call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, nil); code != http.StatusOK {
		t.Fatalf("healthy score: status %d", code)
	}

	// Overload: 50% failures burn the 1% budget at 50× — far over the
	// page threshold in both windows, so the engine pages and the shed
	// level hits the top.
	clock.Advance(time.Second)
	drive(eng, "score", 100, true)
	eng.Tick()
	if st := eng.State(); st != slo.StatePage {
		t.Fatalf("overload state = %v, want page", st)
	}
	if lvl := eng.ShedLevel(); lvl != 3 {
		t.Fatalf("shed level = %d, want 3", lvl)
	}

	// Interactive scoring sheds with Retry-After; ops surfaces answer.
	rec := rawCall(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed score: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("shed 503 has no Retry-After header")
	}
	if code := call(t, s, http.MethodPost, "/v1/feed", FeedRequest{URLs: []string{"http://x.test/"}}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("shed feed: status %d, want 503", code)
	}
	var health HealthResponse
	if code := call(t, s, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz during shed: status %d", code)
	}
	if health.SLOState != "page" || health.ShedLevel != 3 {
		t.Errorf("healthz slo_state=%q shed_level=%d, want page/3", health.SLOState, health.ShedLevel)
	}
	var status slo.Status
	if code := call(t, s, http.MethodGet, "/debug/slo", nil, &status); code != http.StatusOK {
		t.Fatalf("/debug/slo during shed: status %d", code)
	}
	if status.State != "page" || status.ShedLevel != 3 {
		t.Errorf("/debug/slo state=%q shed_level=%d, want page/3", status.State, status.ShedLevel)
	}

	// Shed responses are deliberate, not errors: the shed counters move
	// and the error counter does not.
	m := s.Metrics()
	if m.Shed.Total < 2 {
		t.Errorf("shed.total = %d, want >= 2", m.Shed.Total)
	}
	if m.Errors != 0 {
		t.Errorf("errors = %d, want 0 (sheds must not count as errors)", m.Errors)
	}
	if m.Endpoints["score"].Shed == 0 {
		t.Error("endpoints.score.shed = 0, want > 0")
	}

	// Recovery: the bad events age out of the fast window, good traffic
	// resumes, and after the hold-down the engine returns to ok and
	// shedding disengages.
	clock.Advance(11 * time.Second)
	drive(eng, "score", 100, false)
	eng.Tick()
	if lvl := eng.ShedLevel(); lvl != 0 {
		t.Fatalf("post-burn shed level = %d, want 0 (fast window clean)", lvl)
	}
	clock.Advance(6 * time.Second)
	drive(eng, "score", 100, false)
	eng.Tick()
	if st := eng.State(); st != slo.StateOK {
		t.Fatalf("recovered state = %v, want ok", st)
	}
	if code := call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, nil); code != http.StatusOK {
		t.Fatalf("recovered score: status %d", code)
	}

	// The journal holds the full episode.
	var events eventsResponse
	if code := call(t, s, http.MethodGet, "/debug/events", nil, &events); code != http.StatusOK {
		t.Fatalf("/debug/events: status %d", code)
	}
	saw := map[string]bool{}
	for _, ev := range events.Events {
		saw[ev.Type] = true
	}
	if !saw["slo_transition"] || !saw["shed_level"] {
		t.Errorf("journal types = %v, want slo_transition and shed_level", saw)
	}
}

// TestShedQueuedBoundary pins the second shed boundary: work that won a
// worker slot is re-checked against the current shed level, so requests
// admitted before the burn crossed the threshold do not complete late.
func TestShedQueuedBoundary(t *testing.T) {
	clock := newSLOClock()
	s, eng, _ := sloServer(t, clock, "score:avail>99")

	drive(eng, "score", 100, true)
	eng.Tick()
	if lvl := eng.ShedLevel(); lvl != 3 {
		t.Fatalf("shed level = %d, want 3", lvl)
	}
	ran := false
	err := s.boundedCtx(context.Background(), prioInteractive, func() { ran = true })
	if err != errShed {
		t.Fatalf("boundedCtx = %v, want errShed", err)
	}
	if ran {
		t.Error("shed work ran anyway")
	}
	// Priority 0 work always passes.
	if err := s.boundedCtx(context.Background(), prioOps, func() {}); err != nil {
		t.Fatalf("prioOps boundedCtx = %v, want nil", err)
	}
}

// TestNoSLOEngine pins the nil-engine path: without an SLO engine the
// server admits everything and the debug endpoints answer empty
// documents rather than 404, so dashboards can poll unconditionally.
func TestNoSLOEngine(t *testing.T) {
	c, d := fixtures(t)
	s, err := New(Config{Detector: d, Identifier: target.New(c.Engine)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	snap := c.PhishTest.Examples[0].Snapshot
	if code := call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, nil); code != http.StatusOK {
		t.Fatalf("score: status %d", code)
	}
	var status slo.Status
	if code := call(t, s, http.MethodGet, "/debug/slo", nil, &status); code != http.StatusOK {
		t.Fatalf("/debug/slo: status %d", code)
	}
	if status.State != "ok" || len(status.Objectives) != 0 {
		t.Errorf("/debug/slo = %+v, want ok with no objectives", status)
	}
	var events eventsResponse
	if code := call(t, s, http.MethodGet, "/debug/events", nil, &events); code != http.StatusOK {
		t.Fatalf("/debug/events: status %d", code)
	}
	if len(events.Events) != 0 || events.Total != 0 {
		t.Errorf("/debug/events = %+v, want empty", events)
	}
	// The same bytes as an armed engine that has recorded nothing yet.
	armed, _, _ := sloServer(t, newSLOClock(), "score:avail>99")
	none := rawCall(t, s, http.MethodGet, "/debug/events", nil, nil).Body.String()
	if quiet := rawCall(t, armed, http.MethodGet, "/debug/events", nil, nil).Body.String(); none != quiet {
		t.Errorf("/debug/events without an engine = %q, with a quiet one = %q", none, quiet)
	}
	var health HealthResponse
	call(t, s, http.MethodGet, "/healthz", nil, &health)
	if health.SLOState != "" {
		t.Errorf("healthz slo_state = %q, want absent", health.SLOState)
	}
}

// TestAdmitAllocs pins the admission check at zero allocations: it runs
// on every request of every class.
func TestAdmitAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	objs, err := slo.ParseObjectives([]string{"score:p99<250ms,avail>99.9"})
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	s := &Server{cfg: Config{SLO: slo.New(slo.Config{Objectives: objs})}}
	cls := &endpointClass{name: "score", priority: prioInteractive}
	if n := testing.AllocsPerRun(1000, func() {
		if !s.admit(cls) {
			t.Fatal("unexpected shed")
		}
	}); n != 0 {
		t.Errorf("admit allocates %.1f per run, want 0", n)
	}
}

// BenchmarkAdmission measures the admission fast path — one atomic load
// against the engine's shed level. Its 0 allocs/op is held by
// TestAdmitAllocs under make alloc-check; the bench gate does not run
// it.
func BenchmarkAdmission(b *testing.B) {
	objs, err := slo.ParseObjectives([]string{"score:p99<250ms,avail>99.9"})
	if err != nil {
		b.Fatalf("ParseObjectives: %v", err)
	}
	s := &Server{cfg: Config{SLO: slo.New(slo.Config{Objectives: objs})}}
	cls := &endpointClass{name: "score", priority: prioInteractive}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.admit(cls) {
			b.Fatal("unexpected shed")
		}
	}
}
