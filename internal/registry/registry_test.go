package registry

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var (
	fixOnce sync.Once
	fixCorp *dataset.Corpus
	fixErr  error
)

func fixtureCorpus(t testing.TB) *dataset.Corpus {
	t.Helper()
	fixOnce.Do(func() {
		fixCorp, fixErr = dataset.Build(dataset.Config{
			Seed:              91,
			Scale:             150,
			World:             webgen.Config{Seed: 92, Brands: 40, RankedGenerics: 40, VocabularyWords: 80},
			SkipLanguageTests: true,
		})
	})
	if fixErr != nil {
		t.Fatalf("corpus: %v", fixErr)
	}
	return fixCorp
}

func trainFixture(t testing.TB, seed int64) *core.Detector {
	t.Helper()
	c := fixtureCorpus(t)
	snaps := append(c.LegTrain.Snapshots(), c.PhishTrain.Snapshots()...)
	labels := append(c.LegTrain.Labels(), c.PhishTrain.Labels()...)
	d, err := core.Train(snaps, labels, core.TrainConfig{
		Rank: c.World.Ranking(),
		GBM:  ml.GBMConfig{Trees: 20, MaxDepth: 3, Seed: seed},
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return d
}

func openRegistry(t testing.TB) *Registry {
	t.Helper()
	r, err := Open(t.TempDir(), fixtureCorpus(t).World.Ranking())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return r
}

// TestRoundTrip is the registry artifact round-trip check wired into
// `make registry-check` / CI: train → Save → Load must reproduce
// identical scores on a fixture batch, and the loaded artifact's hash
// must verify.
func TestRoundTrip(t *testing.T) {
	c := fixtureCorpus(t)
	det := trainFixture(t, 7)
	r := openRegistry(t)

	man, err := r.Save(det, TrainingStats{Samples: 10, Phish: 5, Legitimate: 5, Source: "test"}, "round-trip")
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if man.Version != "v0001" {
		t.Errorf("version = %q, want v0001", man.Version)
	}
	if det.Version() != "v0001" {
		t.Errorf("detector not stamped: %q", det.Version())
	}
	if len(man.Hash) != 64 {
		t.Errorf("hash %q is not sha256 hex", man.Hash)
	}
	if man.FeatureSetHash != FeatureSetHash(features.All) {
		t.Errorf("feature-set hash mismatch")
	}

	loaded, err := r.Load("v0001")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Manifest.Hash != man.Hash {
		t.Errorf("manifest hash changed across load")
	}
	if loaded.Detector.Version() != "v0001" {
		t.Errorf("loaded detector version = %q", loaded.Detector.Version())
	}
	// Identical scores on a fixture batch.
	for i, ex := range c.PhishTest.Examples {
		if i >= 16 {
			break
		}
		want := det.ScoreAnalysis(webpage.Analyze(ex.Snapshot))
		got := loaded.Detector.ScoreAnalysis(webpage.Analyze(ex.Snapshot))
		if want != got {
			t.Fatalf("example %d: loaded model scores %v, original %v", i, got, want)
		}
	}
}

// TestSaveIsDeterministic pins the reproducibility contract the content
// hash relies on: two trainings from the same corpus, configuration and
// seed must produce byte-identical artifacts, hence equal hashes.
func TestSaveIsDeterministic(t *testing.T) {
	r := openRegistry(t)
	m1, err := r.Save(trainFixture(t, 7), TrainingStats{}, "")
	if err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	m2, err := r.Save(trainFixture(t, 7), TrainingStats{}, "")
	if err != nil {
		t.Fatalf("Save 2: %v", err)
	}
	if m1.Hash != m2.Hash {
		t.Fatalf("same seed trained different artifacts: %s vs %s", m1.Hash, m2.Hash)
	}
	// A different seed must not collide.
	m3, err := r.Save(trainFixture(t, 8), TrainingStats{}, "")
	if err != nil {
		t.Fatalf("Save 3: %v", err)
	}
	if m3.Hash == m1.Hash {
		t.Fatalf("different seeds produced identical artifacts")
	}
}

func TestChampionPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	rank := fixtureCorpus(t).World.Ranking()
	r, err := Open(dir, rank)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, ok := r.Champion(); ok {
		t.Fatal("empty registry reports a champion")
	}
	if r.Current() != nil {
		t.Fatal("empty registry serves a detector")
	}
	if _, err := r.Save(trainFixture(t, 7), TrainingStats{}, ""); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := r.Save(trainFixture(t, 8), TrainingStats{}, ""); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := r.SetChampion("v0002"); err != nil {
		t.Fatalf("SetChampion: %v", err)
	}
	if got := r.ChampionVersion(); got != "v0002" {
		t.Fatalf("champion = %q, want v0002", got)
	}

	r2, err := Open(dir, rank)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := r2.ChampionVersion(); got != "v0002" {
		t.Fatalf("champion after reopen = %q, want v0002", got)
	}
	if r2.Len() != 2 {
		t.Fatalf("Len after reopen = %d, want 2", r2.Len())
	}
	vs := r2.List()
	if len(vs) != 2 || vs[0].Version != "v0001" || vs[1].Version != "v0002" {
		t.Fatalf("List = %+v", vs)
	}
	// Version assignment continues after the existing ones.
	man, err := r2.Save(trainFixture(t, 9), TrainingStats{}, "")
	if err != nil {
		t.Fatalf("Save after reopen: %v", err)
	}
	if man.Version != "v0003" {
		t.Fatalf("next version = %q, want v0003", man.Version)
	}
}

// TestSaveSeesExternalVersions pins the cross-process contract: a
// second registry handle on the same directory (kptrain -registry
// against a live kpserve's registry) must neither collide on version
// assignment nor stay invisible to List.
func TestSaveSeesExternalVersions(t *testing.T) {
	dir := t.TempDir()
	rank := fixtureCorpus(t).World.Ranking()
	r1, err := Open(dir, rank)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Save(trainFixture(t, 7), TrainingStats{}, ""); err != nil {
		t.Fatal(err)
	}
	// A second process registers v0002 behind r1's back.
	r2, err := Open(dir, rank)
	if err != nil {
		t.Fatal(err)
	}
	if man, err := r2.Save(trainFixture(t, 8), TrainingStats{}, ""); err != nil || man.Version != "v0002" {
		t.Fatalf("external Save = %+v, %v", man, err)
	}
	// r1's next Save must take v0003, not crash into the existing v0002.
	man, err := r1.Save(trainFixture(t, 9), TrainingStats{}, "")
	if err != nil {
		t.Fatalf("Save after external registration: %v", err)
	}
	if man.Version != "v0003" {
		t.Fatalf("version = %q, want v0003", man.Version)
	}
	// And r1's listing reflects the directory, not its private snapshot.
	vs := r1.List()
	if len(vs) != 3 || vs[1].Version != "v0002" {
		t.Fatalf("List after external registration = %+v", vs)
	}
	// Promoting the externally registered version works too.
	if _, err := r1.SetChampion("v0002"); err != nil {
		t.Fatalf("SetChampion(external): %v", err)
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := r.Save(trainFixture(t, 7), TrainingStats{}, ""); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, "v0001", "model.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("v0001"); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("corrupted artifact loaded without a hash error: %v", err)
	}
}

func TestSetChampionUnknownVersion(t *testing.T) {
	r := openRegistry(t)
	if _, err := r.SetChampion("v0042"); err == nil {
		t.Fatal("promoting an unknown version succeeded")
	}
}

// TestHotSwapRace drives concurrent ScoreCtx and ScoreBatchCtx
// against the registry source while the champion is swapped repeatedly.
// Under -race (CI) this proves the zero-downtime swap contract: no data
// race, no blocked or failed scorer, and every verdict is attributable
// to exactly one of the registered versions.
func TestHotSwapRace(t *testing.T) {
	c := fixtureCorpus(t)
	r := openRegistry(t)
	if _, err := r.Save(trainFixture(t, 7), TrainingStats{}, ""); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := r.Save(trainFixture(t, 8), TrainingStats{}, ""); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := r.SetChampion("v0001"); err != nil {
		t.Fatalf("SetChampion: %v", err)
	}

	snaps := c.PhishTest.Snapshots()
	if len(snaps) > 8 {
		snaps = snaps[:8]
	}
	reqs := make([]core.ScoreRequest, len(snaps))
	for i, s := range snaps {
		reqs[i] = core.NewScoreRequest(s, core.WithoutTargetID())
	}

	const (
		scorers = 4
		swaps   = 50
	)
	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < scorers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				det := r.Current()
				if det == nil {
					t.Error("Current() returned nil mid-swap")
					return
				}
				if g%2 == 0 {
					v, err := det.ScoreCtx(ctx, reqs[i%len(reqs)])
					if err != nil {
						t.Errorf("ScoreCtx: %v", err)
						return
					}
					if v.ModelVersion != "v0001" && v.ModelVersion != "v0002" {
						t.Errorf("verdict carries unknown version %q", v.ModelVersion)
						return
					}
				} else {
					vs, err := det.ScoreBatchCtx(ctx, reqs, 2)
					if err != nil {
						t.Errorf("ScoreBatchCtx: %v", err)
						return
					}
					for _, v := range vs {
						if v == nil {
							t.Error("batch item missing without cancellation")
							return
						}
						if v.ModelVersion != det.Version() {
							t.Errorf("batch verdict version %q from detector %q", v.ModelVersion, det.Version())
							return
						}
					}
				}
			}
		}(g)
	}
	versions := [2]string{"v0001", "v0002"}
	for i := 0; i < swaps; i++ {
		if _, err := r.SetChampion(versions[i%2]); err != nil {
			t.Errorf("SetChampion: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()
}
