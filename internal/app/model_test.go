package app

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"knowphish/internal/dataset"
	"knowphish/internal/serve"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// benchIndexDigest is the sha256 of the saved search index of
// BuildCorpus(20, 42), the corpus every self-trained server and the
// benchmark harness boot with. It was recorded once, before the corpus
// build stopped analysing whole pages; a change to the build that moves
// one byte of the index moves it.
const benchIndexDigest = "17539f9ff0b64d56e21c1661d5af220b06e33ee8e34b842d5e0364e4a2910e52"

func TestBenchCorpusIndexPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full scale-20 corpus")
	}
	c, err := BuildCorpus(20, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := c.Engine.Save(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != benchIndexDigest {
		t.Errorf("saved index of BuildCorpus(20, 42): sha256 %s, pinned %s", got, benchIndexDigest)
	}
}

// TestArtifactsServeWhatSelfTrainServes writes the artifact set the way
// kptrain does, with its default recipe, and starts a server on it. For
// a fixed set of phishing and English pages its /v2/score and
// /v1/target answers, timings aside, and its /healthz threshold must be
// those of a server self-trained at the same scale and seed, byte for
// byte: the set is that server's world. Without any one file of the set
// Start fails, naming it.
func TestArtifactsServeWhatSelfTrainServes(t *testing.T) {
	const scale, seed = 100, 7
	corpus, err := BuildCorpus(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	det, err := TrainDemo(corpus, seed, DemoTrees)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteArtifacts(dir, corpus, det); err != nil {
		t.Fatal(err)
	}
	loaded, err := Start(Config{Model: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	trained, err := Start(Config{Scale: scale, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()

	var pages []*webpage.Snapshot
	for _, camp := range []*dataset.Campaign{corpus.PhishTest, corpus.LangTests[webgen.English]} {
		for _, ex := range camp.Examples[:min(8, len(camp.Examples))] {
			pages = append(pages, ex.Snapshot)
		}
	}
	// answer returns a's answer to a request, its ETag first and its
	// timings zeroed.
	timings := regexp.MustCompile(`"timings":\{[^}]*\}`)
	answer := func(a *App, method, path string, body []byte) (etag, doc string) {
		t.Helper()
		rec := httptest.NewRecorder()
		a.Server.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec.Header().Get("ETag"), timings.ReplaceAllString(rec.Body.String(), `"timings":{}`)
	}
	positives := 0
	for i, snap := range pages {
		body, err := json.Marshal(serve.PageRequest{Snapshot: snap})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v2/score", "/v1/target"} {
			gotTag, got := answer(loaded, http.MethodPost, path, body)
			wantTag, want := answer(trained, http.MethodPost, path, body)
			if gotTag != wantTag || got != want {
				t.Errorf("page %d, %s:\nartifacts  %s %s\nself-train %s %s", i, path, gotTag, got, wantTag, want)
			}
			if path == "/v2/score" && strings.Contains(got, `"target_run":true`) {
				positives++
			}
		}
	}
	if positives == 0 {
		t.Error("no page reached target identification through /v2/score: the index went unread")
	}
	var health [2]serve.HealthResponse
	for i, a := range []*App{loaded, trained} {
		_, doc := answer(a, http.MethodGet, "/healthz", nil)
		if err := json.Unmarshal([]byte(doc), &health[i]); err != nil {
			t.Fatal(err)
		}
	}
	if health[0].Threshold != health[1].Threshold {
		t.Errorf("/healthz threshold: artifacts %v, self-train %v", health[0].Threshold, health[1].Threshold)
	}

	for _, name := range []string{modelFile, rankingFile, indexFile} {
		path := filepath.Join(dir, name)
		if err := os.Rename(path, path+".gone"); err != nil {
			t.Fatal(err)
		}
		if _, err := Start(Config{Model: dir}); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("artifact set without %s: Start error %v, want one naming the file", name, err)
		}
		if err := os.Rename(path+".gone", path); err != nil {
			t.Fatal(err)
		}
	}
}
