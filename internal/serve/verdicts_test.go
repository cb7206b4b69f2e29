package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/store"
)

// verdictsFixture is the deterministic corpus behind the /v1/verdicts
// goldens: supersede churn, targeted phish, a terminal error and two
// model versions, all with fixed timestamps. The removed JSONL engine
// wrote these records to testdata/golden_verdicts_store.jsonl; nothing
// writes that format any more, so the file is frozen.
func verdictsFixture() []store.Record {
	base := time.Date(2026, 7, 20, 8, 0, 0, 0, time.UTC)
	recs := []store.Record{
		{URL: "http://lure.test/a", LandingURL: "http://land.test/a", RDN: "land.test",
			Fingerprint: "fp-a", Target: "novabank.com", ModelVersion: "v0001",
			Outcome: core.Outcome{Score: 0.91, DetectorPhish: true, FinalPhish: true}},
		// Superseded twice: only the third verdict for land.test/a+fp-a
		// is live after migration or compaction.
		{URL: "http://lure.test/a", LandingURL: "http://land.test/a", RDN: "land.test",
			Fingerprint: "fp-a", Target: "novabank.com", ModelVersion: "v0001",
			Outcome: core.Outcome{Score: 0.93, DetectorPhish: true, FinalPhish: true}},
		{URL: "http://lure.test/a", LandingURL: "http://land.test/a", RDN: "land.test",
			Fingerprint: "fp-a", Target: "novabank.com", ModelVersion: "v0002",
			Outcome: core.Outcome{Score: 0.95, DetectorPhish: true, FinalPhish: true}},
		{URL: "http://shop.test/", LandingURL: "http://shop.test/", RDN: "shop.test",
			Fingerprint: "fp-s", ModelVersion: "v0001",
			Outcome: core.Outcome{Score: 0.12}},
		{URL: "http://lure.test/b", LandingURL: "http://land.test/b", RDN: "land.test",
			Fingerprint: "fp-b", Target: "novabank.com", ModelVersion: "v0002",
			Outcome: core.Outcome{Score: 0.88, DetectorPhish: true, FinalPhish: true}},
		{URL: "http://gone.test/", LandingURL: "http://gone.test/",
			Error: "fetch: connection refused"},
		{URL: "http://blog.test/", LandingURL: "http://blog.test/", RDN: "blog.test",
			Fingerprint: "fp-w", ModelVersion: "v0002",
			Outcome: core.Outcome{Score: 0.33}},
	}
	for i := range recs {
		recs[i].ScoredAt = base.Add(time.Duration(i) * time.Hour)
	}
	return recs
}

const verdictsFixtureFile = "golden_verdicts_store.jsonl"

// copyVerdictsFixture stages the committed legacy JSONL corpus into a
// temp dir (Open migrates in place, so each case needs its own copy).
func copyVerdictsFixture(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", verdictsFixtureFile))
	if err != nil {
		t.Fatalf("reading fixture corpus (run with -update-golden to create): %v", err)
	}
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV1VerdictsGolden pins the /v1/verdicts wire format byte for byte
// across storage engines: the committed legacy JSONL corpus is served
// by the segmented engine after a one-shot migration, the records it
// was written from are served by the memory engine, and both must
// match the same goldens — the proof that the storage engine is
// invisible to v1 clients and that migration loses nothing.
func TestV1VerdictsGolden(t *testing.T) {
	queries := []struct{ name, query string }{
		{"all", "/v1/verdicts"},
		{"by_target", "/v1/verdicts?target=novabank.com"},
		{"by_url", "/v1/verdicts?url=http://lure.test/a"},
		{"phish_limit", "/v1/verdicts?phish_only=true&limit=2"},
		{"since", "/v1/verdicts?since=2026-07-20T11:30:00Z"},
		{"empty", "/v1/verdicts?target=unknown.example"},
	}
	backends := []struct {
		name string
		open func(t *testing.T) store.Backend
	}{
		{"memory", func(t *testing.T) store.Backend {
			b, err := store.Open(store.Config{Backend: store.BackendMemory})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range verdictsFixture() {
				if err := b.Append(context.Background(), r); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}},
		{"migrated", func(t *testing.T) store.Backend {
			// store.Open sees the legacy JSONL file and migrates it into
			// a segmented directory before serving.
			b, err := store.Open(store.Config{Path: copyVerdictsFixture(t)})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}

	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			b := be.open(t)
			t.Cleanup(func() { _ = b.Close() })
			s := newServer(t, func(cfg *Config) { cfg.Store = b })
			for _, q := range queries {
				t.Run(q.name, func(t *testing.T) {
					req := httptest.NewRequest(http.MethodGet, q.query, nil)
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Fatalf("status = %d (body %s)", rec.Code, rec.Body.String())
					}
					got := rec.Body.Bytes()
					path := filepath.Join("testdata", "golden_v1_verdicts_"+q.name+".json")
					if *updateGolden {
						if be.name != "migrated" {
							return // goldens are authored from the committed corpus
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
						t.Errorf("%s response drifted from golden %s:\n got: %s\nwant: %s",
							be.name, path, got, want)
					}
				})
			}
		})
	}
}

// TestV2VerdictsPagination covers the cursor-paginated /v2/verdicts
// surface: pages chain through next_cursor without duplicates or gaps,
// filters compose with pagination, and malformed cursors answer 400.
func TestV2VerdictsPagination(t *testing.T) {
	b, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts"), Backend: store.BackendSegmented})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	const n = 23
	for i := 0; i < n; i++ {
		r := store.Record{
			URL:        "http://u.test/" + string(rune('a'+i)),
			LandingURL: "http://u.test/" + string(rune('a'+i)),
			ScoredAt:   base.Add(time.Duration(i) * time.Hour),
		}
		if i%2 == 0 {
			r.ModelVersion = "v0001"
		} else {
			r.ModelVersion = "v0002"
		}
		if err := b.Append(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(t, func(cfg *Config) { cfg.Store = b })

	// Page through everything 5 at a time.
	var all []store.Record
	cursor := ""
	pages := 0
	for {
		path := "/v2/verdicts?limit=5"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var pr VerdictsPageResponse
		if code := call(t, s, http.MethodGet, path, nil, &pr); code != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, code)
		}
		if pr.Count != len(pr.Records) {
			t.Fatalf("count = %d, records = %d", pr.Count, len(pr.Records))
		}
		all = append(all, pr.Records...)
		pages++
		if pr.NextCursor == "" {
			break
		}
		cursor = pr.NextCursor
	}
	if len(all) != n || pages != 5 {
		t.Fatalf("paged scan = %d records over %d pages, want %d over 5", len(all), pages, n)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq >= all[i-1].Seq {
			t.Fatalf("page order not strictly newest-first at %d: %d then %d", i, all[i-1].Seq, all[i].Seq)
		}
	}

	// A filtered paged walk returns exactly the one-shot result.
	var oneShot VerdictsPageResponse
	if code := call(t, s, http.MethodGet, "/v2/verdicts?model_version=v0001&limit=1000", nil, &oneShot); code != http.StatusOK {
		t.Fatalf("one-shot status = %d", code)
	}
	if oneShot.NextCursor != "" {
		t.Errorf("exhaustive query returned next_cursor %q", oneShot.NextCursor)
	}
	var filtered []store.Record
	cursor = ""
	for {
		path := "/v2/verdicts?model_version=v0001&limit=4"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var pr VerdictsPageResponse
		if code := call(t, s, http.MethodGet, path, nil, &pr); code != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, code)
		}
		filtered = append(filtered, pr.Records...)
		if pr.NextCursor == "" {
			break
		}
		cursor = pr.NextCursor
	}
	if len(filtered) != len(oneShot.Records) {
		t.Fatalf("filtered paged = %d records, one-shot = %d", len(filtered), len(oneShot.Records))
	}
	for i := range filtered {
		if filtered[i].Seq != oneShot.Records[i].Seq {
			t.Fatalf("filtered page diverges at %d: seq %d vs %d", i, filtered[i].Seq, oneShot.Records[i].Seq)
		}
	}

	// until composes with since into a half-open window [since, until).
	var window VerdictsPageResponse
	path := "/v2/verdicts?since=2026-07-01T05:00:00Z&until=2026-07-01T10:00:00Z&limit=1000"
	if code := call(t, s, http.MethodGet, path, nil, &window); code != http.StatusOK {
		t.Fatalf("window status = %d", code)
	}
	if window.Count != 5 {
		t.Errorf("time window = %d records, want 5", window.Count)
	}

	// Errors: malformed cursor, bad until, oversized limit.
	for _, bad := range []string{
		"/v2/verdicts?cursor=bogus",
		"/v2/verdicts?until=yesterday",
		"/v2/verdicts?limit=1000000",
	} {
		if code := call(t, s, http.MethodGet, bad, nil, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, code)
		}
	}

	// An empty v2 result stays a JSON array, never null.
	req := httptest.NewRequest(http.MethodGet, "/v2/verdicts?target=unknown.example", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"records":[]`)) {
		t.Errorf("empty v2 result = %s, want records:[]", rec.Body.String())
	}

	// Without a store, both verdict endpoints answer 503.
	bare := newServer(t, nil)
	for _, path := range []string{"/v1/verdicts", "/v2/verdicts"} {
		if code := call(t, bare, http.MethodGet, path, nil, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s without store: status = %d, want 503", path, code)
		}
	}
}

// TestV2VerdictsSourceFilter covers the feed-connector provenance
// filter: /v2/verdicts?source= restricts to records ingested through
// that connector and composes with pagination, while the frozen /v1
// surface ignores the parameter entirely.
func TestV2VerdictsSourceFilter(t *testing.T) {
	b, err := store.Open(store.Config{Backend: store.BackendMemory})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	sources := []string{"phishtank", "tranco", "phishtank", "", "ctlog", "phishtank"}
	for i, src := range sources {
		r := store.Record{
			URL:        "http://s.test/" + string(rune('a'+i)),
			LandingURL: "http://s.test/" + string(rune('a'+i)),
			Source:     src,
			ScoredAt:   base.Add(time.Duration(i) * time.Minute),
		}
		if err := b.Append(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(t, func(cfg *Config) { cfg.Store = b })

	var pr VerdictsPageResponse
	if code := call(t, s, http.MethodGet, "/v2/verdicts?source=phishtank", nil, &pr); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if pr.Count != 3 {
		t.Fatalf("source=phishtank returned %d records, want 3", pr.Count)
	}
	for _, r := range pr.Records {
		if r.Source != "phishtank" {
			t.Errorf("record %s has source %q, want phishtank", r.URL, r.Source)
		}
	}

	// The filter composes with the pagination cursor.
	var first VerdictsPageResponse
	if code := call(t, s, http.MethodGet, "/v2/verdicts?source=phishtank&limit=2", nil, &first); code != http.StatusOK {
		t.Fatalf("paged status = %d", code)
	}
	if first.Count != 2 || first.NextCursor == "" {
		t.Fatalf("first page = %d records, cursor %q; want 2 with a cursor", first.Count, first.NextCursor)
	}
	var rest VerdictsPageResponse
	if code := call(t, s, http.MethodGet, "/v2/verdicts?source=phishtank&limit=2&cursor="+first.NextCursor, nil, &rest); code != http.StatusOK {
		t.Fatalf("second page status = %d", code)
	}
	if rest.Count != 1 || rest.NextCursor != "" {
		t.Fatalf("second page = %d records, cursor %q; want the final 1", rest.Count, rest.NextCursor)
	}

	// An unknown source is an empty result, not an error.
	var none VerdictsPageResponse
	if code := call(t, s, http.MethodGet, "/v2/verdicts?source=nosuch", nil, &none); code != http.StatusOK {
		t.Fatalf("unknown source status = %d", code)
	}
	if none.Count != 0 {
		t.Errorf("unknown source returned %d records", none.Count)
	}

	// /v1/verdicts predates provenance: the parameter is ignored, not
	// rejected, and the response still carries every record.
	var v1 VerdictsResponse
	if code := call(t, s, http.MethodGet, "/v1/verdicts?source=phishtank", nil, &v1); code != http.StatusOK {
		t.Fatalf("v1 status = %d", code)
	}
	if v1.Count != len(sources) {
		t.Errorf("v1 with source param returned %d records, want all %d (param must be ignored)", v1.Count, len(sources))
	}
}
