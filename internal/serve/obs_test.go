package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"knowphish/internal/coalesce"
	"knowphish/internal/core"
	"knowphish/internal/feed"
	"knowphish/internal/obs"
	"knowphish/internal/slo"
	"knowphish/internal/store"
	"knowphish/internal/target"
)

// rawCall sends a request and returns the recorder (for tests that need
// headers or non-JSON bodies; call() handles the JSON-only common case).
func rawCall(t *testing.T, s *Server, method, path string, body any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// tracedServer builds a server with a tracer and scores n pages so the
// telemetry surfaces have data.
func tracedServer(t *testing.T, n int) *Server {
	t.Helper()
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) {
		cfg.Tracer = obs.NewTracer(obs.Config{})
	})
	for i := 0; i < n && i < len(c.PhishTest.Examples); i++ {
		snap := c.PhishTest.Examples[i].Snapshot
		if code := call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, nil); code != http.StatusOK {
			t.Fatalf("score %d: status %d", i, code)
		}
	}
	return s
}

// Exposition-format grammar (version 0.0.4): every line of the scrape
// must be a HELP comment, a TYPE comment, or a sample.
var (
	promHelpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:\\\\|\\"|\\n|[^"\\])*",?)*\})? (NaN|[+-]?Inf|[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)$`)
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels string // raw {...} text, "" when unlabeled
	value  float64
}

// parseProm validates the exposition grammar line by line and returns
// the samples plus the TYPE of each family.
func parseProm(t *testing.T, body string) ([]promSample, map[string]string) {
	t.Helper()
	var samples []promSample
	types := make(map[string]string)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !promHelpRe.MatchString(line) {
				t.Errorf("malformed HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			types[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64)
		if err != nil {
			if m[3] == "+Inf" {
				v = float64(1<<63 - 1)
			} else {
				t.Errorf("unparseable value in %q: %v", line, err)
				continue
			}
		}
		samples = append(samples, promSample{name: m[1], labels: m[2], value: v})
	}
	return samples, types
}

// baseFamily strips histogram sample suffixes back to the family name.
func baseFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func TestPrometheusExpositionGrammar(t *testing.T) {
	s := fullSurfaceServer(t, 5)
	rec := rawCall(t, s, http.MethodGet, "/metrics?format=prometheus", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body := rec.Body.String()
	samples, types := parseProm(t, body)
	if len(samples) == 0 {
		t.Fatal("scrape produced no samples")
	}

	// Every sample must belong to a declared family.
	for _, smp := range samples {
		if _, ok := types[baseFamily(smp.name)]; !ok {
			t.Errorf("sample %q has no TYPE declaration", smp.name)
		}
	}

	// The load-bearing families must be present with the right types.
	for fam, typ := range map[string]string{
		"knowphish_http_requests_total":      "counter",
		"knowphish_pages_scored_total":       "counter",
		"knowphish_requests_in_flight":       "gauge",
		"knowphish_cache_hits_total":         "counter",
		"knowphish_cache_misses_total":       "counter",
		"knowphish_memo_evictions_total":     "counter",
		"knowphish_memo_entries":             "gauge",
		"knowphish_request_duration_seconds": "histogram",
		"knowphish_stage_duration_seconds":   "histogram",
		"knowphish_traces_finished_total":    "counter",
		"knowphish_feed_rejected_total":      "counter",
		"knowphish_shed_total":               "counter",
		"knowphish_shed_level":               "gauge",
		"knowphish_endpoint_shed_total":      "counter",
		"knowphish_endpoint_latency_seconds": "gauge",
		"knowphish_slo_state":                "gauge",
		"knowphish_slo_objective_state":      "gauge",
		"knowphish_slo_burn_rate":            "gauge",
		"knowphish_slo_budget_remaining":     "gauge",
		"knowphish_slo_transitions_total":    "counter",
		"go_goroutines":                      "gauge",
	} {
		if got := types[fam]; got != typ {
			t.Errorf("family %s: TYPE %q, want %q", fam, got, typ)
		}
	}

	// One definition per signal: cached-verdict sizes and evictions are
	// the memo families above, not a second pair under the cache prefix.
	for _, fam := range []string{"knowphish_cache_entries", "knowphish_cache_evictions_total"} {
		if _, ok := types[fam]; ok {
			t.Errorf("family %s is still exported; it duplicates knowphish_memo_*{table=\"score\"}", fam)
		}
	}

	// The memo families name the two tables that exist.
	for _, smp := range samples {
		if smp.name == "knowphish_memo_entries" && smp.labels != `{table="score"}` && smp.labels != `{table="target"}` {
			t.Errorf("knowphish_memo_entries%s: only the score and target tables exist", smp.labels)
		}
	}

	// The windowed latency family carries one sample per
	// (endpoint, window, quantile) for latency-tracked classes, and the
	// SLO burn-rate family one per (objective, window).
	winLabels := make(map[string]bool)
	burnWindows := make(map[string]bool)
	for _, smp := range samples {
		if smp.name == "knowphish_endpoint_latency_seconds" && strings.Contains(smp.labels, `endpoint="score"`) {
			winLabels[strings.Trim(smp.labels, "{}")] = true
		}
		if smp.name == "knowphish_slo_burn_rate" {
			if m := regexp.MustCompile(`window="([^"]+)"`).FindStringSubmatch(smp.labels); m != nil {
				burnWindows[m[1]] = true
			}
		}
	}
	for _, win := range []string{"1m", "5m", "1h"} {
		for _, q := range []string{"0.5", "0.99", "0.999"} {
			key := `endpoint="score",window="` + win + `",quantile="` + q + `"`
			if !winLabels[key] {
				t.Errorf("knowphish_endpoint_latency_seconds missing {%s}", key)
			}
		}
	}
	for _, want := range []string{"fast", "slow"} {
		if !burnWindows[want] {
			t.Errorf("knowphish_slo_burn_rate missing window=%q samples", want)
		}
	}

	// Histogram invariants per (family, label-set-sans-le): buckets
	// cumulative and non-decreasing, +Inf bucket equal to _count, _sum
	// and _count present.
	type histKey struct{ fam, labels string }
	buckets := make(map[histKey][]float64)
	infs := make(map[histKey]float64)
	counts := make(map[histKey]float64)
	sums := make(map[histKey]bool)
	leRe := regexp.MustCompile(`le="([^"]*)",?`)
	for _, smp := range samples {
		fam := baseFamily(smp.name)
		if types[fam] != "histogram" {
			continue
		}
		stripped := leRe.ReplaceAllString(smp.labels, "")
		stripped = strings.TrimSuffix(strings.TrimPrefix(stripped, "{"), "}")
		stripped = strings.TrimSuffix(stripped, ",")
		k := histKey{fam, stripped}
		switch {
		case strings.HasSuffix(smp.name, "_bucket"):
			le := leRe.FindStringSubmatch(smp.labels)
			if le == nil {
				t.Errorf("%s bucket sample without le label: %q", fam, smp.labels)
				continue
			}
			if le[1] == "+Inf" {
				infs[k] = smp.value
			} else {
				buckets[k] = append(buckets[k], smp.value)
			}
		case strings.HasSuffix(smp.name, "_count"):
			counts[k] = smp.value
		case strings.HasSuffix(smp.name, "_sum"):
			sums[k] = true
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets in the scrape")
	}
	for k, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i] < bs[i-1] {
				t.Errorf("%s{%s}: bucket counts not cumulative at %d: %v", k.fam, k.labels, i, bs)
				break
			}
		}
		inf, ok := infs[k]
		if !ok {
			t.Errorf("%s{%s}: no +Inf bucket", k.fam, k.labels)
			continue
		}
		if inf < bs[len(bs)-1] {
			t.Errorf("%s{%s}: +Inf bucket %v below last finite bucket %v", k.fam, k.labels, inf, bs[len(bs)-1])
		}
		if c, ok := counts[k]; !ok || c != inf {
			t.Errorf("%s{%s}: _count %v != +Inf bucket %v", k.fam, k.labels, c, inf)
		}
		if !sums[k] {
			t.Errorf("%s{%s}: no _sum sample", k.fam, k.labels)
		}
	}

	// One stage label set per pipeline stage under the stage family.
	stageSamples := 0
	for _, smp := range samples {
		if smp.name == "knowphish_stage_duration_seconds_count" {
			stageSamples++
		}
	}
	if want := len(obs.StageNames()); stageSamples != want {
		t.Errorf("stage histogram label sets = %d, want %d", stageSamples, want)
	}
}

func TestPrometheusCountersMonotonic(t *testing.T) {
	s := tracedServer(t, 3)
	c, _ := fixtures(t)

	scrape := func() map[string]float64 {
		rec := rawCall(t, s, http.MethodGet, "/metrics?format=prometheus", nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		samples, types := parseProm(t, rec.Body.String())
		vals := make(map[string]float64)
		for _, smp := range samples {
			if types[baseFamily(smp.name)] == "counter" || strings.HasSuffix(smp.name, "_bucket") || strings.HasSuffix(smp.name, "_count") {
				vals[smp.name+smp.labels] = smp.value
			}
		}
		return vals
	}

	first := scrape()
	for i := 3; i < 8 && i < len(c.PhishTest.Examples); i++ {
		snap := c.PhishTest.Examples[i].Snapshot
		call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, nil)
	}
	second := scrape()

	for key, v1 := range first {
		v2, ok := second[key]
		if !ok {
			t.Errorf("counter %s vanished between scrapes", key)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", key, v1, v2)
		}
	}
	if second["knowphish_pages_scored_total"] <= first["knowphish_pages_scored_total"] {
		t.Errorf("pages_scored_total did not advance: %v -> %v",
			first["knowphish_pages_scored_total"], second["knowphish_pages_scored_total"])
	}
}

func TestMetricsFormatParam(t *testing.T) {
	s := tracedServer(t, 1)
	for _, format := range []string{"", "json"} {
		path := "/metrics"
		if format != "" {
			path += "?format=" + format
		}
		rec := rawCall(t, s, http.MethodGet, path, nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d", path, rec.Code)
		}
		var doc MetricsSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s did not answer JSON: %v", path, err)
		}
	}
	if rec := rawCall(t, s, http.MethodGet, "/metrics?format=xml", nil, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown format: status = %d, want 400", rec.Code)
	}
}

// keyPaths flattens a decoded JSON document into its sorted set of
// object key paths; arrays descend through their first element.
func keyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			keyPaths(p, child, out)
		}
	case []any:
		if len(x) > 0 {
			keyPaths(prefix+"[]", x[0], out)
		}
	}
}

// fullSurfaceServer builds a server with every optional metrics
// subsystem this package wires in — tracer, feed scheduler, verdict
// store and SLO engine — and scores n pages, so the /metrics document
// carries its complete key surface.
func fullSurfaceServer(t *testing.T, n int) *Server {
	t.Helper()
	c, d := fixtures(t)
	st, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts")})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { _ = st.Close() })
	sched, err := feed.New(feed.Config{
		Fetcher:  c.World,
		Pipeline: &core.Pipeline{Detector: d, Identifier: target.New(c.Engine)},
		Store:    st,
		Workers:  2,
	})
	if err != nil {
		t.Fatalf("feed.New: %v", err)
	}
	t.Cleanup(func() { sched.Drain(time.Now().Add(10 * time.Second)) })
	objs, err := slo.ParseObjectives([]string{"score:p99<250ms,avail>99.9"})
	if err != nil {
		t.Fatalf("slo.ParseObjectives: %v", err)
	}
	journal := obs.NewJournal(0)
	s, err := New(Config{
		Detector:   d,
		Identifier: target.New(c.Engine),
		Feed:       sched,
		Store:      st,
		Tracer:     obs.NewTracer(obs.Config{}),
		SLO:        slo.New(slo.Config{Objectives: objs, Journal: journal}),
		Journal:    journal,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n && i < len(c.PhishTest.Examples); i++ {
		snap := c.PhishTest.Examples[i].Snapshot
		if code := call(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap}, nil); code != http.StatusOK {
			t.Fatalf("score %d: status %d", i, code)
		}
	}
	return s
}

// TestMetricsJSONShapeGolden pins the key shape of the default JSON
// /metrics document, with every optional subsystem wired in so the
// optional subtrees (feed, store, tracing) are covered too. The JSON form is the frozen v1 surface — new telemetry must
// ride ?format=prometheus or new optional keys, and any removed or
// renamed key here is a breaking change for deployed dashboards.
func TestMetricsJSONShapeGolden(t *testing.T) {
	s := fullSurfaceServer(t, 2)
	rec := rawCall(t, s, http.MethodGet, "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	paths := make(map[string]bool)
	keyPaths("", doc, paths)
	keys := make([]string, 0, len(paths))
	for p := range paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	got, err := json.MarshalIndent(keys, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_metrics_keys.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics JSON key shape drifted from golden %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// promFixedLabels are the labels whose values are fixed enumerations;
// the shape golden keeps them and masks every other label value.
var promFixedLabels = map[string]bool{"le": true, "table": true, "reason": true, "window": true, "quantile": true, "stage": true}

var promLabelRe = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\\\|\\"|\\n|[^"\\])*)"`)

// promShape reduces a scrape to its shape: every HELP and TYPE line in
// order, and for every sample outside the go_* runtime families its name
// and label names, with values dropped and label values masked unless
// they are fixed enumerations.
func promShape(t *testing.T, body string) []byte {
	t.Helper()
	var sb strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "go_") {
			continue
		}
		if !strings.HasPrefix(line, "# ") {
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed sample line: %q", line)
			}
			line = m[1] + promLabelRe.ReplaceAllStringFunc(m[2], func(l string) string {
				if name := promLabelRe.FindStringSubmatch(l)[1]; !promFixedLabels[name] {
					return name + "=_"
				}
				return l
			})
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// TestPrometheusShapeGolden pins the Prometheus exposition's shape —
// families, their order, HELP and TYPE text, and every sample's name and
// label set — for the full-surface server. Regenerate with
// -update-golden.
func TestPrometheusShapeGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		server func(*testing.T) *Server
	}{
		{"golden_prometheus_shape.txt", func(t *testing.T) *Server { return fullSurfaceServer(t, 2) }},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			rec := rawCall(t, tc.server(t), http.MethodGet, "/metrics?format=prometheus", nil, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("status = %d", rec.Code)
			}
			got := promShape(t, rec.Body.String())
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update-golden to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("exposition shape drifted from golden %s:\n got:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

func TestDebugTracesEndpoint(t *testing.T) {
	s := tracedServer(t, 3)
	rec := rawCall(t, s, http.MethodGet, "/debug/traces", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var doc obs.Debug
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	if !doc.Summary.Enabled {
		t.Error("summary reports tracing disabled")
	}
	if doc.Summary.Finished < 3 {
		t.Errorf("finished traces = %d, want >= 3", doc.Summary.Finished)
	}
	if len(doc.Recent) == 0 {
		t.Fatal("no recent traces retained")
	}
	// The newest scoring trace must carry the pipeline stages the
	// request actually ran.
	var scored *obs.TraceDoc
	for i := range doc.Recent {
		if doc.Recent[i].Endpoint == "/v1/score" {
			scored = &doc.Recent[i]
			break
		}
	}
	if scored == nil {
		t.Fatal("no /v1/score trace in the ring")
	}
	if scored.TraceID == "" || len(scored.TraceID) != 32 {
		t.Errorf("trace id %q not 32 hex chars", scored.TraceID)
	}
	stages := make(map[string]bool)
	for _, sp := range scored.Spans {
		stages[sp.Stage] = true
		if sp.DurUS < 0 || sp.OffsetUS < 0 {
			t.Errorf("span %s has negative timing: %+v", sp.Stage, sp)
		}
	}
	for _, want := range []string{"extract", "score"} {
		if !stages[want] {
			t.Errorf("scoring trace missing stage %q (got %v)", want, stages)
		}
	}
}

// TestScoreHeldTracesStagesThatRan: the trace owner records a span for
// each stage the verdict measured and none for a stage that did not
// run — a cold request traces its three stages, and a memo hit ran
// nothing and leaves no span at all.
func TestScoreHeldTracesStagesThatRan(t *testing.T) {
	c, _ := fixtures(t)
	tracer := obs.NewTracer(obs.Config{})
	s := newServer(t, func(cfg *Config) { cfg.Tracer = tracer })
	snap := c.PhishTest.Examples[0].Snapshot
	stagesOf := func(req core.ScoreRequest) []string {
		t.Helper()
		ctx, tr := tracer.StartRequest(context.Background(), "/v2/score", "")
		if _, _, err := s.scoreHeld(ctx, req, coalesce.CacheDefault); err != nil {
			t.Fatal(err)
		}
		tracer.Finish(tr)
		var got []string
		for _, sp := range tracer.Snapshot().Recent[0].Spans {
			got = append(got, sp.Stage)
		}
		return got
	}
	req := core.ScoreRequest{Snapshot: snap, Options: core.Options{SkipTarget: true}}
	if got := stagesOf(req); strings.Join(got, ",") != "analyze,extract,score" {
		t.Errorf("cold request spans = %v, want [analyze extract score]", got)
	}
	if got := stagesOf(req); len(got) != 0 {
		t.Errorf("memo hit spans = %v, want none", got)
	}
}

func TestTraceparentEchoAndPropagation(t *testing.T) {
	c, _ := fixtures(t)
	s := newServer(t, func(cfg *Config) {
		cfg.Tracer = obs.NewTracer(obs.Config{})
	})
	snap := c.PhishTest.Examples[0].Snapshot

	parent := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	rec := rawCall(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap},
		map[string]string{"traceparent": parent})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	echo := rec.Header().Get("Traceparent")
	if echo == "" {
		t.Fatal("no Traceparent response header")
	}
	parts := strings.Split(echo, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 {
		t.Fatalf("malformed echoed traceparent %q", echo)
	}
	if parts[1] != "0123456789abcdef0123456789abcdef" {
		t.Errorf("trace id not propagated: %q", parts[1])
	}
	if parts[2] == "00f067aa0ba902b7" {
		t.Error("span id not refreshed; the server echoed the caller's span")
	}

	// A malformed traceparent must not poison the trace: the server
	// mints a fresh id instead.
	rec = rawCall(t, s, http.MethodPost, "/v1/score", PageRequest{Snapshot: snap},
		map[string]string{"traceparent": "00-zzzz-bad-01"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	echo = rec.Header().Get("Traceparent")
	parts = strings.Split(echo, "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		t.Fatalf("malformed fresh traceparent %q", echo)
	}
	if parts[1] == "0123456789abcdef0123456789abcdef" {
		t.Error("malformed header was accepted as a trace id")
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	s := newServer(t, nil)
	var h HealthResponse
	if code := call(t, s, http.MethodGet, "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if h.GoVersion == "" {
		t.Error("healthz lost go_version")
	}
	if !strings.HasPrefix(runtime.Version(), h.GoVersion) && h.GoVersion != runtime.Version() {
		t.Errorf("go_version %q does not match runtime %q", h.GoVersion, runtime.Version())
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", h.UptimeSeconds)
	}
}
