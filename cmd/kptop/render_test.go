package main

import (
	"strings"
	"testing"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/obs"
	"knowphish/internal/serve"
	"knowphish/internal/slo"
)

func testFrame(at time.Time) *frame {
	return &frame{
		At: at,
		Metrics: serve.MetricsSnapshot{
			UptimeSeconds: 90,
			Requests:      1200,
			Errors:        3,
			InFlight:      4,
			CacheHitRate:  0.5,
			Shed:          serve.ShedMetrics{Total: 40, Queued: 2, Level: 2},
			Endpoints: map[string]serve.EndpointMetrics{
				"score": {Priority: 3, Shed: 38, Windows: []obs.WindowSummary{
					{Window: "1m", Count: 600, P50US: 800, P99US: 2400},
					{Window: "5m", Count: 900, P50US: 700, P99US: 2100},
					{Window: "1h", Count: 1100, P50US: 650, P99US: 1900},
				}},
				"feed": {Priority: 1, Shed: 2},
			},
			SLO: &slo.Status{
				State:        "warn",
				ShedLevel:    2,
				FastWindowMS: 300000,
				SlowWindowMS: 3600000,
				PageBurn:     14.4,
				WarnBurn:     6,
				Objectives: []slo.ObjectiveStatus{{
					Name: "score:p99<250ms", Endpoint: "score", Kind: "latency",
					State: "warn", FastBurn: 7.5, SlowBurn: 6.2,
					BudgetRemaining: 0.4, FastGood: 930, FastBad: 70,
				}},
			},
			Coalesce: &coalesce.Stats{
				Batches:      100,
				BatchedItems: 100,
				Bypassed:     7,
				Score:        coalesce.TableStats{Hits: 300, Misses: 150, Entries: 150},
			},
			Tracing: &obs.Summary{Stages: []obs.StageSummary{
				{Stage: "score", Count: 1100, Windows: []obs.WindowSummary{
					{Window: "1m", Count: 600, P50US: 500, P99US: 1500},
				}},
			}},
		},
		Events: []obs.Event{
			{Seq: 2, Time: at, Type: "shed_level", Msg: "admission shed level 0 -> 2"},
			{Seq: 1, Time: at.Add(-time.Second), Type: "slo_transition", Msg: "slo score:p99<250ms ok -> warn"},
		},
	}
}

// TestRenderFrame pins the dashboard's sections and key values.
func TestRenderFrame(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	out := renderFrame(nil, testFrame(at), false)

	for _, want := range []string{
		"up 1m30s",
		"requests 1200",
		"state warn",
		"shed level 2",
		"score:p99<250ms",
		"burn fast   7.50x slow   6.20x",
		"budget  40%",
		"total 40",
		"queued 2",
		"score",
		"2.4ms", // score 1m p99
		"shed_level",
		"admission shed level 0 -> 2",
		"passes 100",
		"bypassed 7",
		"score  67% (150)",
		"target -",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q\n%s", want, out)
		}
	}
	for _, gone := range []string{"batches", "items", "avg", "analysis", "features"} {
		if strings.Contains(out, gone) {
			t.Errorf("frame still renders %q\n%s", gone, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("color disabled but frame contains ANSI escapes")
	}
}

// TestRenderRates pins the delta-rate computation between two frames.
func TestRenderRates(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	prev := testFrame(at)
	cur := testFrame(at.Add(2 * time.Second))
	cur.Metrics.Requests = prev.Metrics.Requests + 300
	cur.Metrics.Shed.Total = prev.Metrics.Shed.Total + 10

	out := renderFrame(prev, cur, false)
	if !strings.Contains(out, "(150.0/s)") {
		t.Errorf("want 150.0/s request rate\n%s", out)
	}
	if !strings.Contains(out, "total 50 (5.0/s)") {
		t.Errorf("want 5.0/s shed rate\n%s", out)
	}
}

// TestRenderRatesAcrossRestart: kpserve restarted between the polls, so
// its counters start again from zero. The rates count from zero too,
// instead of going negative.
func TestRenderRatesAcrossRestart(t *testing.T) {
	at := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	prev := testFrame(at)
	cur := testFrame(at.Add(2 * time.Second))
	cur.Metrics.UptimeSeconds = 1
	cur.Metrics.Requests = 60
	cur.Metrics.Shed.Total = 4

	out := renderFrame(prev, cur, false)
	if !strings.Contains(out, "requests 60 (30.0/s)") {
		t.Errorf("want 30.0/s request rate counted from zero\n%s", out)
	}
	if !strings.Contains(out, "total 4 (2.0/s)") {
		t.Errorf("want 2.0/s shed rate counted from zero\n%s", out)
	}
}

// TestRenderNoEngine pins the degraded layout against a server without
// an SLO engine: the dashboard must stay useful, not error out.
func TestRenderNoEngine(t *testing.T) {
	f := &frame{At: time.Now(), Metrics: serve.MetricsSnapshot{Requests: 5}}
	out := renderFrame(nil, f, true)
	if !strings.Contains(out, "no engine") {
		t.Errorf("want no-engine hint\n%s", out)
	}
}
