package drift

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/feed"
	"knowphish/internal/ml"
	"knowphish/internal/registry"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
)

var (
	fixOnce sync.Once
	fixCorp *dataset.Corpus
	fixDet  *core.Detector
	fixErr  error
)

// fixtures builds one small corpus and champion detector shared by the
// lifecycle tests.
func fixtures(t *testing.T) (*dataset.Corpus, *core.Detector) {
	t.Helper()
	fixOnce.Do(func() {
		fixCorp, fixErr = dataset.Build(dataset.Config{
			Seed:              51,
			Scale:             100,
			World:             webgen.Config{Seed: 52, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if fixErr != nil {
			return
		}
		snaps := append(fixCorp.LegTrain.Snapshots(), fixCorp.PhishTrain.Snapshots()...)
		labels := append(fixCorp.LegTrain.Labels(), fixCorp.PhishTrain.Labels()...)
		fixDet, fixErr = core.Train(snaps, labels, core.TrainConfig{
			Rank: fixCorp.World.Ranking(),
			GBM:  ml.GBMConfig{Trees: 30, MaxDepth: 3, Seed: 3},
		})
	})
	if fixErr != nil {
		t.Fatalf("fixtures: %v", fixErr)
	}
	return fixCorp, fixDet
}

func newRegistryWithChampion(t *testing.T, det *core.Detector) *registry.Registry {
	t.Helper()
	c, _ := fixtures(t)
	reg, err := registry.Open(t.TempDir(), c.World.Ranking())
	if err != nil {
		t.Fatalf("registry.Open: %v", err)
	}
	if _, err := reg.Save(det, registry.TrainingStats{Source: "synthetic-corpus"}, "seed champion"); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := reg.SetChampion("v0001"); err != nil {
		t.Fatalf("SetChampion: %v", err)
	}
	return reg
}

func TestNewLifecycleValidates(t *testing.T) {
	if _, err := NewLifecycle(LifecycleConfig{}); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestRetrainWithoutStoreFails(t *testing.T) {
	_, det := fixtures(t)
	reg := newRegistryWithChampion(t, det)
	lc, err := NewLifecycle(LifecycleConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Retrain(context.Background()); err == nil {
		t.Fatal("retrain without a store succeeded")
	}
	if st := lc.Status(); st.RetrainFailures != 1 || st.LastError == "" {
		t.Fatalf("failure not accounted: %+v", st)
	}
}

func TestPromoteUnknownVersionNeedsForce(t *testing.T) {
	_, det := fixtures(t)
	reg := newRegistryWithChampion(t, det)
	lc, err := NewLifecycle(LifecycleConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Promote("v0001", false); err == nil {
		t.Fatal("ungated promote of a version with no evaluation succeeded")
	}
	// Force is the operator override: re-promoting (or rolling back to)
	// a registered version without an evaluation.
	if _, err := lc.Promote("v0001", true); err != nil {
		t.Fatalf("forced promote: %v", err)
	}
	if got := lc.Status().Promotions; got != 1 {
		t.Fatalf("promotions = %d", got)
	}
}

// TestAutoRetrainBacksOffAfterFailure pins the failed-retrain cooldown:
// with the drift flag latched and a retrain that cannot succeed (the
// store only holds one class), the automatic loop must attempt once,
// back off for a window of traffic, then attempt again — not relaunch a
// doomed crawl-and-train on every observed verdict.
func TestAutoRetrainBacksOffAfterFailure(t *testing.T) {
	c, det := fixtures(t)
	reg := newRegistryWithChampion(t, det)
	st, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "v.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// A single-class retrain corpus: legitimate pages only.
	rng := rand.New(rand.NewSource(17))
	fetchers := []crawl.Fetcher{c.World}
	for i := 0; i < 20; i++ {
		site := c.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		fetchers = append(fetchers, site)
		if err := st.Append(context.Background(), store.Record{URL: site.StartURL, LandingURL: site.StartURL}); err != nil {
			t.Fatal(err)
		}
	}

	const window = 16
	lc, err := NewLifecycle(LifecycleConfig{
		Registry:    reg,
		Store:       st,
		Fetcher:     crawl.Compose(fetchers...),
		Rank:        c.World.Ranking(),
		Monitor:     Config{Window: window, Baseline: window, EvalEvery: 1},
		AutoRetrain: true,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	snap := c.LegTrain.Examples[0].Snapshot
	verdict := func(phish bool) core.Verdict {
		score := 0.1
		if phish {
			score = 0.95
		}
		return core.Verdict{Outcome: core.Outcome{Score: score, FinalPhish: phish}}
	}
	// Baseline: all legitimate; then a phish burst until the flag trips
	// (the flagging call itself launches the retrain).
	for i := 0; i < window; i++ {
		lc.OnVerdict(snap, verdict(false))
	}
	for i := 0; i < 4*window && !lc.Monitor().Flagged(); i++ {
		lc.OnVerdict(snap, verdict(true))
	}
	if !lc.Monitor().Flagged() {
		t.Fatal("phish burst never flagged drift")
	}
	// The retrain runs in the background and must fail (one class) and
	// arm the cooldown.
	deadline := time.Now().Add(30 * time.Second)
	for lc.Status().Cooldown == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cooldown never armed: %+v", lc.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := lc.Status().RetrainFailures; got != 1 {
		t.Fatalf("retrain failures = %d, want 1", got)
	}
	if lc.Status().LastError == "" {
		t.Error("failed retrain left no LastError")
	}

	// While cooling down, further traffic must not relaunch the retrain.
	cd := lc.Status().Cooldown
	for i := int64(0); i < cd-1; i++ {
		lc.OnVerdict(snap, verdict(true))
	}
	if got := lc.Status().RetrainFailures; got != 1 {
		t.Fatalf("retrain refired during cooldown: failures = %d", got)
	}
	// Draining the cooldown re-arms the loop: the flag is still latched,
	// so the next verdicts attempt (and fail) again — backed off, not
	// wedged.
	for i := 0; i < 2; i++ {
		lc.OnVerdict(snap, verdict(true))
	}
	deadline = time.Now().Add(30 * time.Second)
	for lc.Status().RetrainFailures < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("loop never retried after cooldown: %+v", lc.Status())
		}
		lc.OnVerdict(snap, verdict(true))
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLifecycleEndToEnd is the acceptance path of the subsystem: feed
// traffic shifts → the drift monitor flags it → a background retrain
// learns from store-persisted verdicts → the challenger shadow-scores
// live traffic → the promotion gate swaps the champion — all while a
// concurrent scorer hammers the registry source and must see zero
// failed or blocked requests, with Verdict.ModelVersion changing
// mid-stream.
func TestLifecycleEndToEnd(t *testing.T) {
	c, det := fixtures(t)
	reg := newRegistryWithChampion(t, det)
	st, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Two traffic pools over the synthetic world: a legitimate baseline
	// and the phish campaign that later shifts the distribution.
	rng := rand.New(rand.NewSource(7))
	fetchers := []crawl.Fetcher{c.World}
	seen := map[string]bool{}
	var legitURLs, phishURLs []string
	for len(legitURLs) < 80 {
		site := c.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		if seen[site.StartURL] {
			continue // random generation may collide; the feed dedupes in-flight URLs
		}
		seen[site.StartURL] = true
		fetchers = append(fetchers, site)
		legitURLs = append(legitURLs, site.StartURL)
	}
	for len(phishURLs) < 60 {
		site := c.World.NewPhishSite(rng, c.World.RandomPhishOptions(rng))
		if seen[site.StartURL] {
			continue
		}
		seen[site.StartURL] = true
		fetchers = append(fetchers, site)
		phishURLs = append(phishURLs, site.StartURL)
	}
	fetcher := crawl.Compose(fetchers...)

	lc, err := NewLifecycle(LifecycleConfig{
		Registry: reg,
		Store:    st,
		Fetcher:  fetcher,
		Rank:     c.World.Ranking(),
		Monitor: Config{
			Window:    60,
			Baseline:  60,
			EvalEvery: 5,
		},
		ShadowFraction: 1,
		Epsilon:        0.15,
		MinShadow:      10,
		AutoRetrain:    true,
		Seed:           5,
		GBM:            ml.GBMConfig{Trees: 20, MaxDepth: 3, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	sched, err := feed.New(feed.Config{
		Fetcher:    fetcher,
		Pipeline:   &core.Pipeline{Detector: det, Identifier: target.New(c.Engine)},
		Detectors:  reg,
		Store:      st,
		Workers:    4,
		QueueDepth: 4096,
		DomainRate: -1,
		OnVerdict:  lc.OnVerdict,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A concurrent scorer simulating the serving path: it must never
	// block or fail across the swap, and must observe the version change
	// mid-stream.
	scoreCtx, stopScoring := context.WithCancel(context.Background())
	defer stopScoring()
	probe := c.PhishTest.Examples[0].Snapshot
	var scorerErrs, scored atomic.Int64
	versionsSeen := sync.Map{}
	var scorerWG sync.WaitGroup
	scorerWG.Add(1)
	go func() {
		defer scorerWG.Done()
		for scoreCtx.Err() == nil {
			d := reg.Current()
			if d == nil {
				scorerErrs.Add(1)
				return
			}
			v, err := d.ScoreCtx(context.Background(), core.NewScoreRequest(probe, core.WithoutTargetID()))
			if err != nil {
				scorerErrs.Add(1)
				return
			}
			versionsSeen.Store(v.ModelVersion, true)
			scored.Add(1)
		}
	}()

	enqueueAll := func(urls []string) {
		t.Helper()
		for _, u := range urls {
			if err := sched.Enqueue(u); err != nil {
				t.Fatalf("Enqueue(%s): %v", u, err)
			}
		}
		if !sched.Wait(time.Now().Add(60 * time.Second)) {
			t.Fatal("feed stalled")
		}
	}

	// Phase 1: legitimate traffic fills the drift baseline.
	enqueueAll(legitURLs)
	if lc.Monitor().Flagged() {
		t.Fatal("baseline traffic flagged drift")
	}
	if got := lc.Status().Drift.Observations; got < 60 {
		t.Fatalf("monitor observed %d of the baseline", got)
	}

	// Phase 2: the campaign shifts the distribution. Keep the phish
	// burst flowing until the closed loop retrains, shadow-scores and
	// promotes — bounded, not open-ended.
	deadline := time.Now().Add(90 * time.Second)
	for reg.ChampionVersion() == "v0001" {
		if time.Now().After(deadline) {
			t.Fatalf("no promotion before deadline: %+v", lc.Status())
		}
		enqueueAll(phishURLs)
	}

	// One more wave so post-swap verdicts land in the store under the
	// new version.
	enqueueAll(phishURLs)

	stopScoring()
	scorerWG.Wait()
	if dropped := sched.Drain(time.Now().Add(60 * time.Second)); dropped != 0 {
		t.Fatalf("drain dropped %d URLs", dropped)
	}

	status := lc.Status()
	if status.Retrains < 1 {
		t.Errorf("retrains = %d, want >= 1", status.Retrains)
	}
	if status.Promotions < 1 {
		t.Errorf("promotions = %d, want >= 1", status.Promotions)
	}
	if got := reg.ChampionVersion(); got == "v0001" || got == "" {
		t.Errorf("champion still %q after promotion", got)
	}

	// Zero dropped or blocked requests around the swap.
	if n := scorerErrs.Load(); n != 0 {
		t.Errorf("concurrent scorer failed %d times", n)
	}
	if scored.Load() == 0 {
		t.Error("concurrent scorer made no progress")
	}
	fs := sched.Stats()
	if fs.Failed != 0 || fs.Dropped != 0 {
		t.Errorf("feed failures/drops: %+v", fs)
	}

	// The model version changed mid-stream, both for the concurrent
	// scorer and in the durable record.
	for _, v := range []string{"v0001", "v0002"} {
		if _, ok := versionsSeen.Load(v); !ok {
			t.Errorf("concurrent scorer never saw %s", v)
		}
	}
	recVersions := map[string]int{}
	page, err := st.Scan(context.Background(), store.Query{})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	recs, err := page.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for _, rec := range recs {
		recVersions[rec.ModelVersion]++
	}
	if recVersions["v0001"] == 0 || recVersions["v0002"] == 0 {
		t.Errorf("store records by model version = %v, want both v0001 and v0002", recVersions)
	}
}
