// End-to-end acceptance: a live kpserve-shaped server (real HTTP
// listener, feed pipeline, verdict store) while the loadgen harness
// drives POST /v1/feed at a target rate. The test asserts the two load
// invariants the feed promises: the server keeps pace with the
// generator (every arrival answered, none refused for a full queue),
// and no accepted URL is lost between the scheduler and the verdict
// store. Neither check reads a clock; `make load-smoke` reports the rate.
//
// This lives in an external test package: loadgen imports serve for
// the wire types, so an in-package test would be an import cycle.
package serve_test

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/feed"
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

func TestLoadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e load test in -short mode")
	}
	c, d := e2eFixtures(t)

	st, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sched, err := feed.New(feed.Config{
		Fetcher:    c.World,
		Pipeline:   &core.Pipeline{Detector: d, Identifier: target.New(c.Engine)},
		Store:      st,
		Workers:    4,
		DomainRate: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Detector:   d,
		Identifier: target.New(c.Engine),
		Feed:       sched,
		Store:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The load corpus: resolvable brand-site pages.
	var corpus []string
	for _, b := range c.World.Brands {
		corpus = append(corpus, c.World.BrandSiteURLs(b)...)
	}

	// Two seconds of arrivals at 100 URL/s, as a budget rather than a
	// deadline: no request is cut off by the end of the run, so every
	// one the generator issues must come back answered.
	const arrivals = 200
	ctx, cancel := context.WithCancel(context.Background())
	rep, err := loadgen.Run(ctx, loadgen.Config{
		TargetURL: ts.URL,
		Corpus:    corpus,
		QPS:       100,
		Workers:   4,
		Requests:  arrivals,
	})
	cancel() // stops the pacer, which a budgeted run leaves ticking
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sustained %.1f URL/s over %d arrivals", rep.SustainedQPS, arrivals)
	if rep.Requests != arrivals || rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("issued %d arrivals: %d answered, %d errors, %d shed", arrivals, rep.Requests, rep.Errors, rep.Shed)
	}
	// Keeping pace: intake never refused a URL for want of queue room.
	if n := rep.Rejected["queue_full"]; n != 0 {
		t.Fatalf("%d URLs rejected queue_full", n)
	}

	// Stop intake, drain, and check the zero-loss ledger: every
	// accepted URL must be persisted as processed or failed — no drops,
	// no silent losses between the scheduler and the store.
	if dropped := sched.Drain(time.Now().Add(30 * time.Second)); dropped != 0 {
		t.Fatalf("drain dropped %d accepted URLs", dropped)
	}
	fs := sched.Stats()
	if fs.Accepted != rep.Accepted {
		t.Fatalf("scheduler accepted %d URLs, the generator saw %d acks", fs.Accepted, rep.Accepted)
	}
	if fs.Accepted != fs.Processed+fs.Failed {
		t.Fatalf("verdict loss: accepted %d != processed %d + failed %d", fs.Accepted, fs.Processed, fs.Failed)
	}
	ss := st.Stats()
	if ss.Appends != fs.Processed+fs.Failed {
		t.Fatalf("store appends %d != persisted verdicts %d", ss.Appends, fs.Processed+fs.Failed)
	}
}
