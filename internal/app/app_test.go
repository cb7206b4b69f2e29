package app

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/obs"
	"knowphish/internal/serve"
	"knowphish/internal/store"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
)

func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
}

// TestFeedAndHTTPShareOneMemo drives the assembly the way `kpload run
// -self` does — self-trained world, throwaway store, loopback listener —
// and pins its two promises. One stage memo: a page the feed drain
// scored answers an HTTP score request as a hit with no stage computed.
// One shutdown order: after Close every accepted URL is accounted for
// and the store is closed, and closing again is harmless.
func TestFeedAndHTTPShareOneMemo(t *testing.T) {
	const seed = 7
	a, err := Start(Config{Scale: 100, Seed: seed, StorePath: filepath.Join(t.TempDir(), "verdicts")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- a.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// The same world `kpload run -seed 7` replays URLs from.
	world := webgen.New(webgen.Config{Seed: seed + 1})
	url := world.BrandSiteURLs(world.Brands[0])[0]

	var fed serve.FeedResponse
	postJSON(t, base+"/v1/feed", serve.FeedRequest{URLs: []string{url}}, &fed)
	if fed.Accepted != 1 {
		t.Fatalf("feed accepted %d of 1: %+v", fed.Accepted, fed.Results)
	}
	if !a.Feed.Wait(time.Now().Add(30 * time.Second)) {
		t.Fatal("feed did not process the URL in time")
	}
	if rec, ok, err := a.Store.Get(context.Background(), url); err != nil || !ok || rec.Fingerprint == "" {
		t.Fatalf("verdict not persisted with its fingerprint: ok=%v err=%v rec=%+v", ok, err, rec)
	}

	snap, err := crawl.Visit(world, url)
	if err != nil {
		t.Fatal(err)
	}
	var scored serve.V2ScoreResponse
	postJSON(t, base+"/v2/score", serve.V2ScoreRequest{PageRequest: serve.PageRequest{Snapshot: snap}}, &scored)
	if !scored.Cached || scored.Memo != nil || scored.ContentFingerprint == "" {
		t.Fatalf("a page the feed scored must be a memo hit over HTTP: cached=%v memo=%+v fingerprint=%q",
			scored.Cached, scored.Memo, scored.ContentFingerprint)
	}

	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	fs := a.Feed.Stats()
	if fs.Accepted != 1 || fs.Accepted != fs.Processed+fs.Failed+fs.Dropped {
		t.Fatalf("ledger: accepted %d != processed %d + failed %d + dropped %d", fs.Accepted, fs.Processed, fs.Failed, fs.Dropped)
	}
	if _, _, err := a.Store.Get(context.Background(), url); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("store after Close: %v, want ErrClosed", err)
	}
	if err := a.Feed.Enqueue(url); err == nil {
		t.Fatal("feed still accepts URLs after Close")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestFeedAndHTTPShareOneIdentifier pins that a process builds one
// target identifier, so one search index: the memo packs a target entry
// with the index's domain ids, and a packed entry read through another
// index would be a miss. A detector positive the feed scored must
// answer an HTTP request as a hit on both tables, its target result
// equal to the one identified directly.
func TestFeedAndHTTPShareOneIdentifier(t *testing.T) {
	const seed = 7
	ctx := context.Background()
	corpus, err := BuildCorpus(100, seed)
	if err != nil {
		t.Fatal(err)
	}
	det, err := TrainDemo(corpus, seed, 100)
	if err != nil {
		t.Fatal(err)
	}
	direct := &core.Pipeline{Detector: det, Identifier: target.New(corpus.Engine)}
	rng := rand.New(rand.NewSource(seed))
	var site *webgen.Site
	var want core.Verdict
	for i := 0; i < 50 && site == nil; i++ {
		s := corpus.World.NewPhishSite(rng, corpus.World.RandomPhishOptions(rng))
		snap, err := crawl.Visit(s, s.StartURL)
		if err != nil {
			continue
		}
		if v, err := direct.AnalyzeCtx(ctx, core.NewScoreRequest(snap)); err == nil && v.TargetRun {
			site, want = s, v
		}
	}
	if site == nil {
		t.Fatal("no generated phish site is a detector positive")
	}

	a, err := Start(Config{
		World:     &World{Detector: det, Engine: corpus.Engine, Fetcher: site},
		StorePath: filepath.Join(t.TempDir(), "verdicts"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ln)
	base := "http://" + ln.Addr().String()

	var fed serve.FeedResponse
	postJSON(t, base+"/v1/feed", serve.FeedRequest{URLs: []string{site.StartURL}}, &fed)
	if fed.Accepted != 1 || !a.Feed.Wait(time.Now().Add(30*time.Second)) {
		t.Fatalf("feed did not process the URL: %+v", fed)
	}
	snap, err := crawl.Visit(site, site.StartURL)
	if err != nil {
		t.Fatal(err)
	}
	var scored serve.V2ScoreResponse
	postJSON(t, base+"/v2/score", serve.V2ScoreRequest{PageRequest: serve.PageRequest{Snapshot: snap}}, &scored)
	if !scored.Cached || !scored.TargetRun {
		t.Fatalf("a positive the feed scored must be a full memo hit over HTTP: cached=%v target_run=%v memo=%+v",
			scored.Cached, scored.TargetRun, scored.Memo)
	}
	got, _ := json.Marshal(scored.Target)
	exp, _ := json.Marshal(want.Target)
	if !bytes.Equal(got, exp) {
		t.Fatalf("target from the memo:\n got %s\nwant %s", got, exp)
	}
}

// TestStartUnwindsOnError runs the early-error path with the model
// built and the store failing to open (its path names a regular file),
// and with nothing built yet (a malformed SLO spec is found first):
// Start reports the build error and returns once the partial assembly
// has been closed again. No configuration error can surface later:
// once the store and the feed are up, serve.New's two errors (no
// detector; no identifier) cannot occur, because Start always passes a
// model and an identifier.
func TestStartUnwindsOnError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "verdicts")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Start(Config{Scale: 200, Seed: 7, StorePath: file}); err == nil {
		t.Error("store path names a regular file: want an error")
	}
	if _, err := Start(Config{Scale: 200, Seed: 7, SLO: []string{"score:p99<"}}); err == nil {
		t.Error("malformed SLO spec: want an error")
	}
}

// failingStore is a verdict store whose final flush fails.
type failingStore struct{ store.Backend }

var errFlush = errors.New("final sync failed")

func (failingStore) Stats() store.Stats { return store.Stats{} }
func (failingStore) Close() error       { return errFlush }

// TestCloseReportsFailedFlush: a store that cannot take its final sync
// is Close's error — what kpserve exits non-zero on — not a dropped
// return value.
func TestCloseReportsFailedFlush(t *testing.T) {
	a := &App{Store: failingStore{}, logger: obs.NopLogger()}
	if err := a.Close(); !errors.Is(err, errFlush) {
		t.Fatalf("Close = %v, want the store's close error", err)
	}
}
