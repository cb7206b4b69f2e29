package serve

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"knowphish/internal/core"
	"knowphish/internal/ml"
	"knowphish/internal/registry"
	"knowphish/internal/target"
)

// trainSmall fits a quick throwaway detector for registry tests — the
// shared fixture detector must stay unversioned (registry.Save stamps
// the detector it registers).
func trainSmall(t *testing.T, seed int64) *core.Detector {
	t.Helper()
	c, _ := fixtures(t)
	snaps := append(c.LegTrain.Snapshots(), c.PhishTrain.Snapshots()...)
	labels := append(c.LegTrain.Labels(), c.PhishTrain.Labels()...)
	d, err := core.Train(snaps, labels, core.TrainConfig{
		Rank: c.World.Ranking(),
		GBM:  ml.GBMConfig{Trees: 15, MaxDepth: 3, Seed: seed},
	})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return d
}

// emptyRegistry opens a registry holding v0001 and v0002 and no
// champion.
func emptyRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	c, _ := fixtures(t)
	reg, err := registry.Open(t.TempDir(), c.World.Ranking())
	if err != nil {
		t.Fatalf("registry.Open: %v", err)
	}
	for _, seed := range []int64{11, 12} {
		if _, err := reg.Save(trainSmall(t, seed), registry.TrainingStats{Source: "test"}, ""); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	return reg
}

// registryServer builds a server over a two-version registry with
// v0001 as champion.
func registryServer(t *testing.T) (*Server, *registry.Registry) {
	t.Helper()
	c, _ := fixtures(t)
	reg := emptyRegistry(t)
	if _, err := reg.SetChampion("v0001"); err != nil {
		t.Fatalf("SetChampion: %v", err)
	}
	s, err := New(Config{Registry: reg, Identifier: target.New(c.Engine)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, reg
}

func TestModelsEndpointsWithoutRegistry(t *testing.T) {
	s := newServer(t, nil)
	var out errorResponse
	if code := call(t, s, http.MethodGet, "/v2/models", nil, &out); code != http.StatusServiceUnavailable {
		t.Errorf("GET /v2/models without registry = %d, want 503", code)
	}
	if code := call(t, s, http.MethodPost, "/v2/models/promote", PromoteRequest{Version: "v0001"}, &out); code != http.StatusServiceUnavailable {
		t.Errorf("promote without registry = %d, want 503", code)
	}
}

func TestModelsListAndPromote(t *testing.T) {
	s, reg := registryServer(t)

	var models ModelsResponse
	if code := call(t, s, http.MethodGet, "/v2/models", nil, &models); code != http.StatusOK {
		t.Fatalf("GET /v2/models = %d", code)
	}
	if models.Count != 2 || models.ChampionVersion != "v0001" {
		t.Fatalf("models = %+v", models)
	}
	if models.Models[0].Hash == "" || models.Models[0].FeatureSetHash == "" {
		t.Errorf("manifest missing hashes: %+v", models.Models[0])
	}

	// The list is read-only: there is no retrain to trigger.
	rec := rawCall(t, s, http.MethodPost, "/v2/models", nil, nil)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodGet {
		t.Errorf("POST /v2/models = %d, Allow %q; want 405, Allow GET", rec.Code, rec.Header().Get("Allow"))
	}
	// There is no promotion gate to force past: "force" is an unknown
	// field, and the champion is untouched.
	rec = rawCall(t, s, http.MethodPost, "/v2/models/promote", json.RawMessage(`{"version":"v0002","force":true}`), nil)
	if rec.Code != http.StatusBadRequest || reg.ChampionVersion() != "v0001" {
		t.Errorf("promote with force = %d, champion %q; want 400, v0001", rec.Code, reg.ChampionVersion())
	}

	// Promotion is direct, and its response carries no gate ruling.
	rec = rawCall(t, s, http.MethodPost, "/v2/models/promote", PromoteRequest{Version: "v0002"}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("promote = %d", rec.Code)
	}
	var doc map[string]json.RawMessage
	mustUnmarshal(t, rec.Body.Bytes(), &doc)
	if _, ok := doc["gate"]; ok {
		t.Errorf("promote response carries a gate: %s", rec.Body.Bytes())
	}
	var prom PromoteResponse
	mustUnmarshal(t, rec.Body.Bytes(), &prom)
	if !prom.Promoted || prom.From != "v0001" || prom.To != "v0002" {
		t.Fatalf("promote response = %+v", prom)
	}
	if got := reg.ChampionVersion(); got != "v0002" {
		t.Fatalf("champion after promote = %q", got)
	}

	// The swap is visible on every introspection surface.
	var health HealthResponse
	call(t, s, http.MethodGet, "/healthz", nil, &health)
	if health.ModelVersion != "v0002" {
		t.Errorf("healthz model_version = %q", health.ModelVersion)
	}
	var metrics MetricsSnapshot
	call(t, s, http.MethodGet, "/metrics", nil, &metrics)
	if metrics.ModelVersion != "v0002" {
		t.Errorf("metrics model_version = %q", metrics.ModelVersion)
	}

	// Unknown versions are a 404, not a silent no-op.
	var out errorResponse
	if code := call(t, s, http.MethodPost, "/v2/models/promote", PromoteRequest{Version: "v9999"}, &out); code != http.StatusNotFound {
		t.Errorf("promote unknown version = %d, want 404", code)
	}
}

// TestScoreCarriesModelVersion pins the v2 wire contract: fresh and
// cached verdicts both name the model that produced them, and a
// promotion invalidates cached verdicts of the predecessor.
func TestScoreCarriesModelVersion(t *testing.T) {
	s, _ := registryServer(t)
	c, _ := fixtures(t)
	page := V2ScoreRequest{PageRequest: PageRequest{Snapshot: c.PhishTest.Examples[0].Snapshot}}

	var v2 V2ScoreResponse
	if code := call(t, s, http.MethodPost, "/v2/score", page, &v2); code != http.StatusOK {
		t.Fatalf("score = %d", code)
	}
	if v2.ModelVersion != "v0001" || v2.Cached {
		t.Fatalf("fresh verdict: version=%q cached=%v", v2.ModelVersion, v2.Cached)
	}
	call(t, s, http.MethodPost, "/v2/score", page, &v2)
	if !v2.Cached || v2.ModelVersion != "v0001" {
		t.Fatalf("cached verdict: version=%q cached=%v", v2.ModelVersion, v2.Cached)
	}

	var prom PromoteResponse
	if code := call(t, s, http.MethodPost, "/v2/models/promote", PromoteRequest{Version: "v0002"}, &prom); code != http.StatusOK {
		t.Fatalf("promote = %d", code)
	}
	// The predecessor's cached verdict must not shadow the new champion.
	call(t, s, http.MethodPost, "/v2/score", page, &v2)
	if v2.Cached || v2.ModelVersion != "v0002" {
		t.Fatalf("post-swap verdict: version=%q cached=%v (stale cache served?)", v2.ModelVersion, v2.Cached)
	}
}

// TestHotSwapUnderTraffic hammers the scoring endpoints while champions
// swap back and forth through the API — the serve-level half of the
// hot-swap race test (run under -race in CI). Every request must
// succeed; no request may straddle models.
func TestHotSwapUnderTraffic(t *testing.T) {
	s, _ := registryServer(t)
	c, _ := fixtures(t)
	page := V2ScoreRequest{PageRequest: PageRequest{Snapshot: c.PhishTest.Examples[1].Snapshot}}
	batch := BatchRequest{Pages: []PageRequest{
		{Snapshot: c.PhishTest.Examples[2].Snapshot},
		{Snapshot: c.LegTrain.Examples[0].Snapshot},
	}}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if g%2 == 0 {
					var out V2ScoreResponse
					if code := call(t, s, http.MethodPost, "/v2/score", page, &out); code != http.StatusOK {
						t.Errorf("score during swap = %d", code)
						return
					}
					if out.ModelVersion != "v0001" && out.ModelVersion != "v0002" {
						t.Errorf("unknown model version %q", out.ModelVersion)
						return
					}
				} else {
					var out BatchResponse
					if code := call(t, s, http.MethodPost, "/v1/score/batch", batch, &out); code != http.StatusOK {
						t.Errorf("batch during swap = %d", code)
						return
					}
				}
			}
		}(g)
	}
	versions := [2]string{"v0002", "v0001"}
	for i := 0; i < 30; i++ {
		var prom PromoteResponse
		if code := call(t, s, http.MethodPost, "/v2/models/promote", PromoteRequest{Version: versions[i%2]}, &prom); code != http.StatusOK {
			t.Errorf("swap %d = %d", i, code)
			break
		}
	}
	// With the storm settled but traffic still hammering, each promotion
	// must be visible to the very next request — the deterministic
	// mid-stream version change.
	probe := V2ScoreRequest{PageRequest: PageRequest{Snapshot: c.LegTrain.Examples[1].Snapshot}}
	for _, v := range []string{"v0002", "v0001"} {
		var prom PromoteResponse
		if code := call(t, s, http.MethodPost, "/v2/models/promote", PromoteRequest{Version: v}, &prom); code != http.StatusOK {
			t.Fatalf("promote %s = %d", v, code)
		}
		var out V2ScoreResponse
		if code := call(t, s, http.MethodPost, "/v2/score", probe, &out); code != http.StatusOK {
			t.Fatalf("score after promote = %d", code)
		}
		if out.ModelVersion != v {
			t.Errorf("verdict after promoting %s carries %q", v, out.ModelVersion)
		}
	}
	close(done)
	wg.Wait()
}
