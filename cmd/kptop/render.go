package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/obs"
)

// ANSI color codes; empty strings when color is off.
type palette struct {
	reset, dim, green, yellow, red, bold string
}

func newPalette(color bool) palette {
	if !color {
		return palette{}
	}
	return palette{
		reset:  "\x1b[0m",
		dim:    "\x1b[2m",
		green:  "\x1b[32m",
		yellow: "\x1b[33m",
		red:    "\x1b[31m",
		bold:   "\x1b[1m",
	}
}

func (p palette) state(s string) string {
	switch s {
	case "page":
		return p.red + p.bold + s + p.reset
	case "warn":
		return p.yellow + s + p.reset
	default:
		return p.green + s + p.reset
	}
}

// renderFrame renders one dashboard frame. prev, when non-nil, is the
// previous frame — rates (req/s, shed/s) are deltas between the two.
// Pure: all I/O stays in the caller, which is what makes the layout
// testable.
func renderFrame(prev, cur *frame, color bool) string {
	p := newPalette(color)
	m := &cur.Metrics
	var b strings.Builder

	// Header: uptime, rates, in-flight, cache.
	fmt.Fprintf(&b, "%skptop%s  up %s\n", p.bold, p.reset,
		(time.Duration(m.UptimeSeconds) * time.Second).String())
	reqRate, shedRate := rates(prev, cur)
	fmt.Fprintf(&b, "  requests %d (%.1f/s)   errors %d   in-flight %d   cache hit %.0f%%\n",
		m.Requests, reqRate, m.Errors, m.InFlight, m.CacheHitRate*100)

	// SLO block: engine state, shed level, one line per objective.
	if s := m.SLO; s != nil {
		fmt.Fprintf(&b, "\n%sslo%s  state %s   shed level %d   windows %s/%s   thresholds warn %.1fx page %.1fx\n",
			p.bold, p.reset, p.state(s.State), s.ShedLevel,
			(time.Duration(s.FastWindowMS) * time.Millisecond).String(),
			(time.Duration(s.SlowWindowMS) * time.Millisecond).String(),
			s.WarnBurn, s.PageBurn)
		for _, o := range s.Objectives {
			fmt.Fprintf(&b, "  %-28s %s  burn fast %6.2fx slow %6.2fx  budget %3.0f%%  bad %d/%d\n",
				o.Name, p.state(o.State), o.FastBurn, o.SlowBurn,
				o.BudgetRemaining*100, o.FastBad, o.FastGood+o.FastBad)
		}
	} else {
		fmt.Fprintf(&b, "\n%sslo%s  (no engine: start kpserve with -slo)\n", p.dim, p.reset)
	}

	// Admission control.
	fmt.Fprintf(&b, "\n%sshed%s  total %d (%.1f/s)   queued %d   level %d\n",
		p.bold, p.reset, m.Shed.Total, shedRate, m.Shed.Queued, m.Shed.Level)

	// Endpoint classes: windowed percentiles, the "now" view.
	if len(m.Endpoints) > 0 {
		fmt.Fprintf(&b, "\n%sendpoints%s                prio  shed      1m n    1m p50    1m p99    5m p99    1h p99\n", p.bold, p.reset)
		for _, name := range sortedKeys(m.Endpoints) {
			ep := m.Endpoints[name]
			w1, w5, wh := pickWindows(ep.Windows)
			fmt.Fprintf(&b, "  %-22s %4d %5d  %8d  %8s  %8s  %8s  %8s\n",
				name, ep.Priority, ep.Shed, w1.Count,
				us(w1.P50US), us(w1.P99US), us(w5.P99US), us(wh.P99US))
		}
	}

	// Pipeline stages from the tracing summary.
	if tr := m.Tracing; tr != nil && len(tr.Stages) > 0 {
		fmt.Fprintf(&b, "\n%sstages%s                          n     1m p50    1m p99    5m p99\n", p.bold, p.reset)
		for _, st := range tr.Stages {
			w1, w5, _ := pickWindows(st.Windows)
			fmt.Fprintf(&b, "  %-22s %9d  %8s  %8s  %8s\n",
				st.Stage, st.Count, us(w1.P50US), us(w1.P99US), us(w5.P99US))
		}
	}

	// Stage memo: staged passes and the two tables' hit rates.
	if co := m.Coalesce; co != nil {
		fmt.Fprintf(&b, "\n%scoalesce%s  passes %d   bypassed %d\n", p.bold, p.reset, co.Batches, co.Bypassed)
		fmt.Fprintf(&b, "  memo hit  score %s   target %s\n", memoRate(co.Score), memoRate(co.Target))
	}

	// Feed queue.
	if f := m.Feed; f != nil {
		fmt.Fprintf(&b, "\n%sfeed%s  queue %d   in-flight %d   processed %d   failed %d\n",
			p.bold, p.reset, f.Depth, f.InFlight, f.Processed, f.Failed)
	}

	// Journal tail: the last few operational events, newest first.
	if len(cur.Events) > 0 {
		fmt.Fprintf(&b, "\n%sevents%s\n", p.bold, p.reset)
		n := len(cur.Events)
		if n > 5 {
			n = 5
		}
		for _, ev := range cur.Events[:n] {
			fmt.Fprintf(&b, "  %s%s%s  [%s] %s\n",
				p.dim, ev.Time.Format("15:04:05"), p.reset, ev.Type, ev.Msg)
		}
	}
	return b.String()
}

// rates computes requests/s and sheds/s from two consecutive frames.
func rates(prev, cur *frame) (req, shed float64) {
	if prev == nil {
		return 0, 0
	}
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return 0, 0
	}
	return increase(prev.Metrics.Requests, cur.Metrics.Requests) / dt,
		increase(prev.Metrics.Shed.Total, cur.Metrics.Shed.Total) / dt
}

// increase is how much a counter grew between two polls. A counter that
// went down was reset — the server restarted in between — so it grew
// from zero, as Prometheus' rate() reads it.
func increase(prev, cur int64) float64 {
	if cur < prev {
		prev = 0
	}
	return float64(cur - prev)
}

// pickWindows splits a WindowSummary slice into the 1m/5m/1h entries
// (zero values for any that are absent).
func pickWindows(ws []obs.WindowSummary) (w1, w5, wh obs.WindowSummary) {
	for _, w := range ws {
		switch w.Window {
		case "1m":
			w1 = w
		case "5m":
			w5 = w
		case "1h":
			wh = w
		}
	}
	return
}

// memoRate renders one memo table's hit rate and size ("-" before any
// lookup has happened).
func memoRate(ts coalesce.TableStats) string {
	total := ts.Hits + ts.Misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%3.0f%% (%d)", float64(ts.Hits)/float64(total)*100, ts.Entries)
}

// us renders a microsecond value human-readably ("-" for zero).
func us(v int64) string {
	switch {
	case v == 0:
		return "-"
	case v < 1000:
		return fmt.Sprintf("%dµs", v)
	case v < 1_000_000:
		return fmt.Sprintf("%.1fms", float64(v)/1000)
	default:
		return fmt.Sprintf("%.2fs", float64(v)/1_000_000)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
