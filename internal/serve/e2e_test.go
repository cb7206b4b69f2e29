// End-to-end acceptance: a live kpserve-shaped server (real HTTP
// listener, feed pipeline, verdict store) is fed by all three
// fixture-backed connector kinds while the loadgen harness drives
// POST /v1/feed at a target rate. The test asserts the three load
// invariants the subsystem promises: the target rate is sustained,
// no accepted URL is lost by the verdict store, and every
// connector-ingested verdict carries its source's provenance,
// filterable at GET /v2/verdicts?source=.
//
// This lives in an external test package: loadgen imports serve for
// the wire types, so an in-package test would be an import cycle.
package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/feed"
	"knowphish/internal/feedsrc"
	"knowphish/internal/loadgen"
	"knowphish/internal/ml"
	"knowphish/internal/serve"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
)

var (
	e2eOnce sync.Once
	e2eCorp *dataset.Corpus
	e2eDet  *core.Detector
	e2eErr  error
)

// e2eFixtures trains one small corpus/detector pair for the package's
// e2e tests (the in-package fixtures helper is unexported here).
func e2eFixtures(t *testing.T) (*dataset.Corpus, *core.Detector) {
	t.Helper()
	e2eOnce.Do(func() {
		e2eCorp, e2eErr = dataset.Build(dataset.Config{
			Seed:              61,
			Scale:             100,
			World:             webgen.Config{Seed: 62, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if e2eErr != nil {
			return
		}
		snaps := append(e2eCorp.LegTrain.Snapshots(), e2eCorp.PhishTrain.Snapshots()...)
		labels := append(e2eCorp.LegTrain.Labels(), e2eCorp.PhishTrain.Labels()...)
		e2eDet, e2eErr = core.Train(snaps, labels, core.TrainConfig{
			Rank: e2eCorp.World.Ranking(),
			GBM:  ml.GBMConfig{Trees: 50, MaxDepth: 4, Seed: 3},
		})
	})
	if e2eErr != nil {
		t.Fatalf("e2e fixtures: %v", e2eErr)
	}
	return e2eCorp, e2eDet
}

// fixtureFeedServer serves the shared feedsrc testdata fixtures — the
// same bytes the connector unit tests parse, so the e2e path and the
// unit paths can never drift apart.
func fixtureFeedServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for route, file := range map[string]string{
		"/phish.json": "../feedsrc/testdata/phishtank.json",
		"/tranco.csv": "../feedsrc/testdata/tranco.csv",
		"/ct.ndjson":  "../feedsrc/testdata/ctlog.ndjson",
	} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("fixture %s: %v", file, err)
		}
		mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
			w.Write(data)
		})
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// The fixture item counts (see the feedsrc unit tests): 4 usable
// phishtank entries, 5 valid tranco rows, 3 complete ct-log lines.
var fixtureItems = map[string]int64{"phishtank": 4, "tranco": 5, "ctlog": 3}

func TestLoadEndToEndWithConnectors(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e load test in -short mode")
	}
	c, d := e2eFixtures(t)

	st, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// MaxAttempts 1: connector URLs don't resolve in the synthetic
	// world, and the test wants their failure verdicts persisted (with
	// provenance) immediately, not after a retry schedule.
	sched, err := feed.New(feed.Config{
		Fetcher:     c.World,
		Pipeline:    &core.Pipeline{Detector: d, Identifier: target.New(c.Engine)},
		Store:       st,
		Workers:     4,
		DomainRate:  -1,
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	feedSrv := fixtureFeedServer(t)
	mux, err := feedsrc.NewMux(feedsrc.MuxConfig{
		Sink: sched,
		Sources: []feedsrc.Source{
			feedsrc.NewJSONFeed("phishtank", feedSrv.URL+"/phish.json", feedSrv.Client()),
			feedsrc.NewRankedCSV("tranco", feedSrv.URL+"/tranco.csv", feedSrv.Client(), 0),
			feedsrc.NewNDJSONStream("ctlog", feedSrv.URL+"/ct.ndjson", feedSrv.Client()),
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Detector:    d,
		Identifier:  target.New(c.Engine),
		Feed:        sched,
		FeedSources: mux,
		Store:       st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The load corpus: resolvable brand-site pages, disjoint from every
	// connector fixture URL so per-source accounting stays exact.
	var corpus []string
	for _, b := range c.World.Brands {
		corpus = append(corpus, c.World.BrandSiteURLs(b)...)
	}

	const targetQPS = 100.0
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		TargetURL: ts.URL,
		Corpus:    corpus,
		QPS:       targetQPS,
		Workers:   4,
		Duration:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sustained ≥ target with a pacing allowance: the first arrival
	// waits one tick, so a 2s window carries 199 of 200 arrivals.
	if rep.SustainedQPS < 0.9*targetQPS {
		t.Fatalf("sustained %.1f URL/s, want ≥ %.1f (target %.0f)", rep.SustainedQPS, 0.9*targetQPS, targetQPS)
	}
	if rep.Errors > 0 {
		t.Fatalf("load run saw %d request errors", rep.Errors)
	}

	// All three connectors must have delivered every fixture item.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats := mux.Stats()
		done := true
		for name, want := range fixtureItems {
			if stats[name].Items < want {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connectors incomplete after 10s: %+v", stats)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Stop intake, drain, and check the zero-loss ledger: every
	// accepted URL must be persisted as processed or failed — no drops,
	// no silent losses between the scheduler and the store.
	if err := mux.Close(); err != nil {
		t.Fatal(err)
	}
	if dropped := sched.Drain(time.Now().Add(30 * time.Second)); dropped != 0 {
		t.Fatalf("drain dropped %d accepted URLs", dropped)
	}
	fs := sched.Stats()
	if fs.Accepted != fs.Processed+fs.Failed {
		t.Fatalf("verdict loss: accepted %d != processed %d + failed %d", fs.Accepted, fs.Processed, fs.Failed)
	}
	ss := st.Stats()
	if ss.Appends != fs.Processed+fs.Failed {
		t.Fatalf("store appends %d != persisted verdicts %d", ss.Appends, fs.Processed+fs.Failed)
	}

	// Per-source provenance through the live query surface: each
	// connector's verdicts are filterable by name and carry it in the
	// record; direct loadgen submissions carry no source.
	client := ts.Client()
	for name, want := range fixtureItems {
		var page serve.VerdictsPageResponse
		resp, err := client.Get(fmt.Sprintf("%s/v2/verdicts?source=%s&limit=50", ts.URL, name))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verdicts?source=%s: status %d", name, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if int64(page.Count) != want {
			t.Fatalf("source %s: %d verdicts, want %d", name, page.Count, want)
		}
		for _, rec := range page.Records {
			if rec.Source != name {
				t.Fatalf("source %s: record %q carries source %q", name, rec.URL, rec.Source)
			}
		}
	}
}
