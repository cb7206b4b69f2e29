package loadgen

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/serve"
)

// stubServer fakes kpserve's /v1/feed: every Nth URL is rejected as
// queue_full, and every ack reports a fixed queue depth.
func stubServer(t *testing.T, rejectEvery int, depth int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var urlsSeen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.FeedRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := serve.FeedResponse{QueueDepth: depth}
		for _, u := range req.URLs {
			n := urlsSeen.Add(1)
			res := serve.FeedResult{URL: u, Accepted: true}
			if rejectEvery > 0 && n%int64(rejectEvery) == 0 {
				res.Accepted = false
				res.Reason = "queue_full"
				resp.Rejected++
			} else {
				resp.Accepted++
			}
			resp.Results = append(resp.Results, res)
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(srv.Close)
	return srv, &urlsSeen
}

func TestClosedLoopFixedBudget(t *testing.T) {
	srv, seen := stubServer(t, 0, 3)
	rep, err := Run(context.Background(), Config{
		TargetURL: srv.URL,
		Corpus:    []string{"https://a.example/", "https://b.example/"},
		Workers:   4,
		Requests:  40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" {
		t.Fatalf("mode = %q, want closed", rep.Mode)
	}
	if rep.Requests != 40 {
		t.Fatalf("requests = %d, want exactly the 40-request budget", rep.Requests)
	}
	if rep.URLsSubmitted != 40 || seen.Load() != 40 {
		t.Fatalf("urls: report %d, server saw %d, want 40", rep.URLsSubmitted, seen.Load())
	}
	if rep.Accepted != 40 || rep.DropRate != 0 {
		t.Fatalf("accepted = %d drop = %v, want all accepted", rep.Accepted, rep.DropRate)
	}
	if rep.Errors != 0 || rep.ErrorRate != 0 {
		t.Fatalf("errors = %d, want none", rep.Errors)
	}
	if rep.SustainedQPS <= 0 {
		t.Fatalf("sustained qps = %v, want > 0", rep.SustainedQPS)
	}
	// Percentiles come from a sorted sample set: monotone, max is max.
	if rep.LatencyP50US > rep.LatencyP99US || rep.LatencyP99US > rep.LatencyP999US || rep.LatencyP999US > rep.LatencyMaxUS {
		t.Fatalf("percentiles not monotone: p50 %d p99 %d p999 %d max %d",
			rep.LatencyP50US, rep.LatencyP99US, rep.LatencyP999US, rep.LatencyMaxUS)
	}
	if rep.QueueDepthMax != 3 || rep.QueueDepthFinal != 3 {
		t.Fatalf("queue depth max/final = %d/%d, want the acks' 3/3", rep.QueueDepthMax, rep.QueueDepthFinal)
	}
	// A closed-loop request is due when it is sent.
	if rep.SendLagP99US != 0 {
		t.Fatalf("closed-loop send lag p99 = %dµs, want 0", rep.SendLagP99US)
	}
}

func TestOpenLoopPacesAndCountsRejects(t *testing.T) {
	srv, _ := stubServer(t, 4, 1) // every 4th URL rejected queue_full
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		TargetURL: srv.URL,
		Corpus:    []string{"https://a.example/"},
		QPS:       200,
		Workers:   4,
		Duration:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.TargetQPS != 200 {
		t.Fatalf("mode/target = %q/%v, want open/200", rep.Mode, rep.TargetQPS)
	}
	// Open loop must not finish early (arrivals pace the run) and must
	// not exceed the offered load.
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Fatalf("run finished in %v, want the full 300ms window", el)
	}
	if rep.SustainedQPS > 260 {
		t.Fatalf("sustained %v URL/s, want ≤ target 200 (+tolerance)", rep.SustainedQPS)
	}
	if rep.Rejected["queue_full"] == 0 {
		t.Fatalf("rejected = %v, want queue_full counts from per-URL results", rep.Rejected)
	}
	want := rep.URLsSubmitted - rep.Accepted
	if got := rep.Rejected["queue_full"]; got != want {
		t.Fatalf("queue_full = %d, want %d (submitted-accepted)", got, want)
	}
	if rep.DropRate <= 0 {
		t.Fatal("drop rate = 0, want > 0 with forced rejects")
	}
}

// TestOpenLoopCountsFromDueTime: one worker, and the server stalls the
// third request for 400ms. The ~40 arrivals that queue behind the stall
// were due long before they were sent; their latency counts that wait,
// so it reaches the tail instead of vanishing from it.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 3 {
			time.Sleep(400 * time.Millisecond)
		}
		json.NewEncoder(w).Encode(serve.FeedResponse{Accepted: 1})
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		TargetURL: srv.URL,
		Corpus:    []string{"https://a.example/"},
		QPS:       100,
		Workers:   1,
		Duration:  1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests < 140 {
		t.Fatalf("requests/errors = %d/%d, want ~149/0", rep.Requests, rep.Errors)
	}
	if rep.LatencyP90US < 100_000 {
		t.Fatalf("p90 = %s, want ≥ 100ms: arrivals queued behind the stall must count their wait", us(rep.LatencyP90US))
	}
	if rep.SendLagP99US < 100_000 {
		t.Fatalf("send lag p99 = %s, want ≥ 100ms behind a 400ms stall", us(rep.SendLagP99US))
	}
}

func TestErrorsCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		TargetURL: srv.URL,
		Corpus:    []string{"https://a.example/"},
		Workers:   2,
		Requests:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 10 || rep.Requests != 0 {
		t.Fatalf("errors/requests = %d/%d, want 10/0", rep.Errors, rep.Requests)
	}
	if rep.ErrorRate != 1 {
		t.Fatalf("error rate = %v, want 1", rep.ErrorRate)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},                      // no target
		{TargetURL: "http://x"}, // no corpus
		{TargetURL: "http://x", Corpus: []string{"u"}}, // no budget
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("case %d: Run accepted an invalid config", i)
		}
	}
}

// TestQPSOutOfRange: a rate whose pacing interval rounds to zero, or
// that is not a number at all, is a config error — not a panic in the
// pacer goroutine that takes the process down.
func TestQPSOutOfRange(t *testing.T) {
	srv, _ := stubServer(t, 0, 0)
	for _, qps := range []float64{2e9, math.Inf(1), math.NaN()} {
		_, err := Run(context.Background(), Config{
			TargetURL: srv.URL, Corpus: []string{"http://a.test/"},
			QPS: qps, Requests: 1,
		})
		if err == nil {
			t.Errorf("QPS %v: Run accepted it", qps)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {99.9, 100}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Fatalf("p%v = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{42}, 99.9); got != 42 {
		t.Fatalf("single sample p999 = %d, want 42", got)
	}
	// Nearest rank is the ⌈p·N/100⌉-th smallest: p99 of 160 samples is
	// the 159th (⌈158.4⌉), where rounding half-up picked the 158th.
	s = make([]int64, 160)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := percentile(s, 99); got != 159 {
		t.Fatalf("p99 of 1..160 = %d, want 159", got)
	}
}

func TestReportTableAndJSON(t *testing.T) {
	rep := Report{
		Mode: "open", TargetQPS: 100, Workers: 4,
		DurationSeconds: 5, Requests: 480, URLsSubmitted: 480,
		Accepted: 470, Rejected: map[string]int64{"queue_full": 10},
		SustainedQPS: 96, DropRate: 10.0 / 480,
		LatencyP50US: 900, LatencyP99US: 4200, LatencyP999US: 9000, LatencyMaxUS: 12000,
		SendLagP99US: 350, QueueDepthMax: 64, QueueDepthFinal: 0,
	}
	table := rep.Table()
	for _, want := range []string{"open", "96.0 URL/s", "queue_full 10", "p999 9.0ms", "p99 350µs", "max 64, final 0"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}

	path := t.TempDir() + "/LOAD_PR.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	var back Report
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.SustainedQPS != rep.SustainedQPS || back.Rejected["queue_full"] != 10 || back.SendLagP99US != 350 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}
