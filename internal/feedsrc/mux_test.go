package feedsrc

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/feed"
)

// recordSink is a thread-safe Sink that records every delivery and
// answers with a scripted error per URL (nil by default).
type recordSink struct {
	mu    sync.Mutex
	got   [][2]string // url, source
	errOn map[string]error
}

func (s *recordSink) EnqueueFrom(url, source string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, [2]string{url, source})
	return s.errOn[url]
}

func (s *recordSink) deliveries() [][2]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][2]string(nil), s.got...)
}

// scriptSource replays a fixed sequence of Next results.
type scriptSource struct {
	name    string
	batches [][]Item
	errs    []error
	calls   atomic.Int64
	cursor  string
}

func (s *scriptSource) Name() string            { return s.name }
func (s *scriptSource) SetCursor(cursor string) { s.cursor = cursor }
func (s *scriptSource) Cursor() string          { return s.cursor }
func (s *scriptSource) Next(ctx context.Context) ([]Item, string, error) {
	i := int(s.calls.Add(1)) - 1
	if i < len(s.errs) && s.errs[i] != nil {
		return nil, s.cursor, s.errs[i]
	}
	if i < len(s.batches) {
		s.cursor = fmt.Sprintf("%d", i+1)
		return s.batches[i], s.cursor, nil
	}
	return nil, s.cursor, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMuxFansInWithProvenance(t *testing.T) {
	sink := &recordSink{}
	a := &scriptSource{name: "alpha", batches: [][]Item{{{URL: "https://a1/"}, {URL: "https://a2/"}}}}
	b := &scriptSource{name: "beta", batches: [][]Item{{{URL: "https://b1/"}}}}
	m, err := NewMux(MuxConfig{Sink: sink, Sources: []Source{a, b}, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitFor(t, "3 deliveries", func() bool { return len(sink.deliveries()) >= 3 })
	bySource := map[string]int{}
	for _, d := range sink.deliveries() {
		bySource[d[1]]++
	}
	if bySource["alpha"] != 2 || bySource["beta"] != 1 {
		t.Errorf("deliveries by source = %v, want alpha:2 beta:1", bySource)
	}
	st := m.Stats()
	if st["alpha"].Enqueued != 2 || st["beta"].Enqueued != 1 {
		t.Errorf("stats = %+v, want alpha enqueued 2, beta 1", st)
	}
	if st["alpha"].LagSeconds < 0 {
		t.Errorf("alpha lag = %v, want >= 0 after a successful poll", st["alpha"].LagSeconds)
	}
}

func TestMuxRateShareSheds(t *testing.T) {
	sink := &recordSink{}
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{URL: fmt.Sprintf("https://burst-%d/", i)}
	}
	src := &scriptSource{name: "firehose", batches: [][]Item{items}}
	m, err := NewMux(MuxConfig{
		Sink:    sink,
		Sources: []Source{src},
		// 2 URLs/s over a 1 s interval = a burst budget of 2: the
		// 10-item batch must shed 8.
		Interval: time.Second,
		Rate:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitFor(t, "rate shedding", func() bool {
		return m.Stats()["firehose"].Rejected.RateLimited == 8
	})
	st := m.Stats()["firehose"]
	if st.Enqueued != 2 {
		t.Errorf("enqueued = %d, want 2 (the burst budget)", st.Enqueued)
	}
	if st.Items != 10 {
		t.Errorf("items = %d, want 10 (shed items still counted as produced)", st.Items)
	}
}

func TestMuxDedupesAcrossSources(t *testing.T) {
	sink := &recordSink{}
	a := &scriptSource{name: "alpha", batches: [][]Item{{{URL: "https://shared/"}}}}
	b := &scriptSource{name: "beta", batches: [][]Item{{{URL: "https://shared/"}}}}
	m, err := NewMux(MuxConfig{Sink: sink, Sources: []Source{a, b}, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitFor(t, "one accept and one dedupe", func() bool {
		st := m.Stats()
		return st["alpha"].Enqueued+st["beta"].Enqueued == 1 &&
			st["alpha"].Rejected.Duplicate+st["beta"].Rejected.Duplicate == 1
	})
	if n := len(sink.deliveries()); n != 1 {
		t.Errorf("sink saw %d deliveries, want 1 (the duplicate must be shed before the sink)", n)
	}
}

func TestMuxClassifiesSinkRejections(t *testing.T) {
	sink := &recordSink{errOn: map[string]error{
		"https://full/":    fmt.Errorf("wrapped: %w", feed.ErrQueueFull),
		"https://dup/":     fmt.Errorf("wrapped: %w", feed.ErrDuplicate),
		"https://invalid/": fmt.Errorf("wrapped: %w", feed.ErrInvalidURL),
		"https://closed/":  fmt.Errorf("wrapped: %w", feed.ErrClosed),
	}}
	src := &scriptSource{name: "mixed", batches: [][]Item{{
		{URL: "https://ok/"}, {URL: "https://full/"}, {URL: "https://dup/"},
		{URL: "https://invalid/"}, {URL: "https://closed/"},
	}}}
	m, err := NewMux(MuxConfig{Sink: sink, Sources: []Source{src}, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitFor(t, "all five outcomes", func() bool {
		st := m.Stats()["mixed"]
		return st.Enqueued+st.Rejected.total() == 5
	})
	st := m.Stats()["mixed"]
	if st.Enqueued != 1 || st.Rejected.QueueFull != 1 || st.Rejected.Duplicate != 1 ||
		st.Rejected.Invalid != 1 || st.Rejected.Closed != 1 {
		t.Errorf("stats = %+v, want one of each outcome", st)
	}
}

func TestMuxBackoffHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var waits []time.Duration
	sink := &recordSink{}
	src := &scriptSource{
		name: "throttled",
		errs: []error{
			&HTTPError{Status: http.StatusTooManyRequests, RetryAfter: 123 * time.Second},
			&HTTPError{Status: http.StatusInternalServerError},
			&HTTPError{Status: http.StatusInternalServerError},
		},
		batches: [][]Item{nil, nil, nil, {{URL: "https://recovered/"}}},
	}
	m, err := NewMux(MuxConfig{
		Sink:    sink,
		Sources: []Source{src},
		// Above half the cap, so one doubling reaches it.
		Interval: 3 * time.Minute,
		sleep: func(ctx context.Context, d time.Duration) {
			mu.Lock()
			waits = append(waits, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	waitFor(t, "recovery delivery", func() bool { return len(sink.deliveries()) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if len(waits) < 3 {
		t.Fatalf("recorded %d waits, want >= 3", len(waits))
	}
	// The 429's Retry-After overrides the exponential schedule exactly.
	if waits[0] != 123*time.Second {
		t.Errorf("first wait = %v, want the server's 123s Retry-After", waits[0])
	}
	// The plain 5xxs fall back to doubling-capped backoff.
	if waits[1] != DefaultMuxBackoff { // 3m doubled once = 6m, capped at 5m
		t.Errorf("second wait = %v, want %v (doubled interval, capped)", waits[1], DefaultMuxBackoff)
	}
	st := m.Stats()["throttled"]
	if st.FetchErrors != 3 {
		t.Errorf("fetch errors = %d, want 3", st.FetchErrors)
	}
}

func TestMuxCursorResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var hits atomic.Int64
	data, err := os.ReadFile(filepath.Join("testdata", "tranco.csv"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write(data)
	}))
	t.Cleanup(srv.Close)

	sink := &recordSink{}
	m, err := NewMux(MuxConfig{
		Sink:      sink,
		Sources:   []Source{NewRankedCSV("tranco", srv.URL, srv.Client(), 100)},
		Interval:  time.Millisecond,
		CursorDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first process to drain the list", func() bool {
		return len(sink.deliveries()) == 5 && m.Stats()["tranco"].Cursor == "8"
	})
	m.Close()

	cur, err := os.ReadFile(filepath.Join(dir, "tranco.cursor"))
	if err != nil {
		t.Fatalf("cursor file: %v", err)
	}
	if string(cur) != "8" {
		t.Fatalf("persisted cursor = %q, want 8", cur)
	}

	// "Restart": a fresh Mux over a fresh connector must resume at row
	// 8 and re-deliver nothing.
	sink2 := &recordSink{}
	m2, err := NewMux(MuxConfig{
		Sink:      sink2,
		Sources:   []Source{NewRankedCSV("tranco", srv.URL, srv.Client(), 100)},
		Interval:  time.Millisecond,
		CursorDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	waitFor(t, "restarted mux to poll", func() bool { return m2.Stats()["tranco"].Fetches >= 2 })
	if n := len(sink2.deliveries()); n != 0 {
		t.Errorf("restarted mux re-delivered %d URLs: %v", n, sink2.deliveries())
	}
}
