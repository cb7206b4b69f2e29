package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/racecheck"
	"knowphish/internal/store"
	"knowphish/internal/target"
)

// verdictsFixture is the deterministic corpus behind the /v1/verdicts
// goldens: supersede churn, targeted phish and a terminal error, all
// with fixed timestamps.
func verdictsFixture() []store.Record {
	base := time.Date(2026, 7, 20, 8, 0, 0, 0, time.UTC)
	recs := []store.Record{
		{URL: "http://lure.test/a", LandingURL: "http://land.test/a", RDN: "land.test",
			Fingerprint: "fp-a", Target: "novabank.com",
			Outcome: core.Outcome{Score: 0.91, DetectorPhish: true, FinalPhish: true}},
		// Superseded twice: only the third verdict for land.test/a+fp-a
		// is live.
		{URL: "http://lure.test/a", LandingURL: "http://land.test/a", RDN: "land.test",
			Fingerprint: "fp-a", Target: "novabank.com",
			Outcome: core.Outcome{Score: 0.93, DetectorPhish: true, FinalPhish: true}},
		{URL: "http://lure.test/a", LandingURL: "http://land.test/a", RDN: "land.test",
			Fingerprint: "fp-a", Target: "novabank.com",
			Outcome: core.Outcome{Score: 0.95, DetectorPhish: true, FinalPhish: true}},
		{URL: "http://shop.test/", LandingURL: "http://shop.test/", RDN: "shop.test",
			Fingerprint: "fp-s", Outcome: core.Outcome{Score: 0.12}},
		{URL: "http://lure.test/b", LandingURL: "http://land.test/b", RDN: "land.test",
			Fingerprint: "fp-b", Target: "novabank.com",
			Outcome: core.Outcome{Score: 0.88, DetectorPhish: true, FinalPhish: true}},
		{URL: "http://gone.test/", LandingURL: "http://gone.test/",
			Error: "fetch: connection refused"},
		{URL: "http://blog.test/", LandingURL: "http://blog.test/", RDN: "blog.test",
			Fingerprint: "fp-w", Outcome: core.Outcome{Score: 0.33}},
	}
	for i := range recs {
		recs[i].ScoredAt = base.Add(time.Duration(i) * time.Hour)
	}
	return recs
}

// TestV1VerdictsGolden pins the /v1/verdicts wire format byte for byte:
// the fixture records, appended to a fresh store ("memory"), must
// answer every query exactly as the goldens, which are authored from
// this case with -update-golden.
func TestV1VerdictsGolden(t *testing.T) {
	queries := []struct{ name, query string }{
		{"all", "/v1/verdicts"},
		{"by_target", "/v1/verdicts?target=novabank.com"},
		{"by_url", "/v1/verdicts?url=http://lure.test/a"},
		{"phish_limit", "/v1/verdicts?phish_only=true&limit=2"},
		{"since", "/v1/verdicts?since=2026-07-20T11:30:00Z"},
		{"empty", "/v1/verdicts?target=unknown.example"},
	}
	t.Run("memory", func(t *testing.T) {
		b, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = b.Close() })
		for _, r := range verdictsFixture() {
			if err := b.Append(context.Background(), r); err != nil {
				t.Fatal(err)
			}
		}
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
					t.Errorf("response drifted from golden %s:\n got: %s\nwant: %s", path, got, want)
				}
			})
		}
	})
}

// TestV2VerdictsPagination covers the cursor-paginated /v2/verdicts
// surface: pages chain through next_cursor without duplicates or gaps,
// filters compose with pagination, and malformed cursors answer 400.
func TestV2VerdictsPagination(t *testing.T) {
	b, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts")})
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
			r.Target = "novabank.com"
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
	if code := call(t, s, http.MethodGet, "/v2/verdicts?target=novabank.com&limit=1000", nil, &oneShot); code != http.StatusOK {
		t.Fatalf("one-shot status = %d", code)
	}
	if oneShot.NextCursor != "" {
		t.Errorf("exhaustive query returned next_cursor %q", oneShot.NextCursor)
	}
	var filtered []store.Record
	cursor = ""
	for {
		path := "/v2/verdicts?target=novabank.com&limit=4"
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

// TestV2VerdictsServesOldFrames serves a copy of the store an older
// build wrote (internal/store/testdata/compat), whose records carry
// model_version and source members that Record no longer has. Every
// record comes back as stored, those members included, through target
// filters and cursor pages alike. The filters on them are gone: v2
// answers 400 to a request that names either, rather than widening it
// to every record, and v1 ignores them as it ignores any parameter it
// does not know.
func TestV2VerdictsServesOldFrames(t *testing.T) {
	fixture := filepath.Join("..", "store", "testdata", "compat", "store")
	dir := filepath.Join(t.TempDir(), "verdicts")
	if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
		t.Fatal(err)
	}
	var stored []byte // every segment's bytes: each served record must be in them
	segs, err := filepath.Glob(filepath.Join(fixture, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("fixture segments: %v, %v", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, data...)
	}
	b, err := store.Open(store.Config{Path: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	s := newServer(t, func(cfg *Config) { cfg.Store = b })

	// records pages through path, limit records at a time, and returns
	// every record as served.
	records := func(path string, limit int) []json.RawMessage {
		t.Helper()
		var all []json.RawMessage
		cursor := ""
		for {
			p := path + "&limit=" + strconv.Itoa(limit)
			if cursor != "" {
				p += "&cursor=" + cursor
			}
			var page struct {
				Records    []json.RawMessage `json:"records"`
				NextCursor string            `json:"next_cursor"`
			}
			if code := call(t, s, http.MethodGet, p, nil, &page); code != http.StatusOK {
				t.Fatalf("GET %s: status %d", p, code)
			}
			all = append(all, page.Records...)
			if cursor = page.NextCursor; cursor == "" {
				return all
			}
		}
	}
	all := records("/v2/verdicts?", 1000)
	var models, sources int
	for i, raw := range all {
		if !bytes.Contains(stored, raw) {
			t.Errorf("record %d is not a frame of the fixture as stored: %s", i, raw)
		}
		models += bytes.Count(raw, []byte(`"model_version":`))
		sources += bytes.Count(raw, []byte(`"source":`))
	}
	if len(all) != b.Len() || models != 14 || sources != 3 {
		t.Fatalf("%d records carrying %d model_version and %d source members; want %d, 14 and 3",
			len(all), models, sources, b.Len())
	}
	var targeted []json.RawMessage
	for _, raw := range all {
		if bytes.Contains(raw, []byte(`"target":"novabank.com"`)) {
			targeted = append(targeted, raw)
		}
	}
	for _, c := range []struct {
		path  string
		limit int
		want  []json.RawMessage
	}{
		{"/v2/verdicts?", 3, all},
		{"/v2/verdicts?target=novabank.com", 1000, targeted},
		{"/v2/verdicts?target=novabank.com", 2, targeted},
	} {
		got := records(c.path, c.limit)
		if len(got) != len(c.want) || len(c.want) == 0 {
			t.Fatalf("GET %s by %d: %d records, want %d", c.path, c.limit, len(got), len(c.want))
		}
		for i := range got {
			if !bytes.Equal(got[i], c.want[i]) {
				t.Errorf("GET %s by %d: record %d = %s, want %s", c.path, c.limit, i, got[i], c.want[i])
			}
		}
	}

	for _, path := range []string{"/v2/verdicts?model_version=x", "/v2/verdicts?source=x", "/v2/verdicts?source="} {
		var e errorResponse
		if code := call(t, s, http.MethodGet, path, nil, &e); code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("GET %s: status %d (%q), want 400", path, code, e.Error)
		}
	}
	var v1 VerdictsResponse
	if code := call(t, s, http.MethodGet, "/v1/verdicts?source=x&model_version=x", nil, &v1); code != http.StatusOK || v1.Count != len(all) {
		t.Errorf("v1 naming source and model_version: status %d, %d records; want 200 and all %d", code, v1.Count, len(all))
	}
}

// spliceCorpus fills b with every record shape the store holds — heavy
// supersede churn, targets, terminal errors, an identification
// result, text that JSON
// escapes (HTML characters, U+2028, a control byte) and invalid UTF-8 —
// with a compaction in the middle, so the store ends up with
// compaction outputs, sealed segments and an active one.
func spliceCorpus(t *testing.T, b store.Backend) {
	t.Helper()
	base := time.Date(2026, 9, 1, 6, 0, 0, 0, time.UTC)
	for i := 0; i < 64; i++ {
		page := i % 23
		if i < 24 {
			page = i % 4 // the oldest segments are mostly superseded frames
		}
		r := store.Record{
			URL:         "http://lure.test/" + strconv.Itoa(i),
			LandingURL:  "http://land.test/" + strconv.Itoa(page),
			RDN:         "land.test",
			Fingerprint: "fp-" + strconv.Itoa(i%2),
			Outcome:     core.Outcome{Score: float64(i) / 64},
			ScoredAt:    base.Add(time.Duration(i) * time.Minute),
		}
		switch {
		case i%11 == 5:
			r.Outcome, r.Fingerprint, r.RDN = core.Outcome{}, "", ""
			r.Error = "fetch: <refused> & gave up\u2028after\x01retries"
		case i%3 == 0:
			r.Target = "novabank.com"
			r.Outcome = core.Outcome{Score: 0.9 + float64(i)/1000, DetectorPhish: true, TargetRun: true, FinalPhish: true,
				Target: target.Result{Verdict: target.VerdictPhish, StepsUsed: 3,
					Keyterms:   target.Keyterms{Boosted: []string{"nova", "bank"}, Prominent: []string{"login"}},
					Candidates: []target.Candidate{{RDN: "novabank.com", MLD: "novabank", Count: 3, Score: 1.0 / 3}}}}
		}
		if i%4 == 1 {
			r.Outcome.Score = 1e-7 // encoding/json writes an exponent
		}
		if i == 40 || i == 63 {
			r.LandingURL += "?next=\xff\xfe" // a hostile Location header
		}
		if err := b.Append(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		if i == 40 {
			if err := b.Compact(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// spliceStore opens a store over spliceCorpus that rolls a segment
// every few records, so pages break into several reads at segment
// boundaries.
func spliceStore(t *testing.T) store.Backend {
	t.Helper()
	b, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts"), SegmentBytes: 2048, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	spliceCorpus(t, b)
	if st := b.Stats(); st.Segments < 3 || st.Compactions != 1 || st.Superseded == 0 {
		t.Fatalf("fixture = %+v, want several segments and a compaction that dropped frames", st)
	}
	return b
}

// TestVerdictsSpliceMatchesMarshal: the verdict handlers splice stored
// documents into a hand-written envelope. What a client receives must
// be, byte for byte, the wire type built from the decoded page and
// rendered by json.Encoder — the path the handlers used to take.
func TestVerdictsSpliceMatchesMarshal(t *testing.T) {
	b := spliceStore(t)
	t.Run("segmented", func(t *testing.T) {
		s := newServer(t, func(cfg *Config) { cfg.Store = b })
		// get serves path and returns the body beside the reference
		// rendering of the same query, and the page's cursor.
		get := func(path string, v2 bool) (got, want []byte, next string) {
			t.Helper()
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("GET %s: status %d, Content-Length %q for %d bytes", path, rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
			}
			q, err := parseVerdictQuery(req, v2)
			if err != nil {
				t.Fatal(err)
			}
			page, err := b.Scan(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := page.Decode()
			if err != nil {
				t.Fatal(err)
			}
			var doc any
			switch {
			case !v2 && len(recs) == 0:
				doc = VerdictsResponse{}
			case !v2:
				doc = VerdictsResponse{Records: recs, Count: len(recs)}
			default:
				doc = VerdictsPageResponse{Records: recs, Count: len(recs), NextCursor: page.NextCursor}
			}
			var ref bytes.Buffer
			if err := json.NewEncoder(&ref).Encode(doc); err != nil {
				t.Fatal(err)
			}
			return rec.Body.Bytes(), ref.Bytes(), page.NextCursor
		}
		same := func(path string, got, want []byte) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Errorf("GET %s:\n got: %s\nwant: %s", path, got, want)
			}
		}

		// The query shapes of the v1 goldens.
		for _, path := range []string{
			"/v1/verdicts",
			"/v1/verdicts?target=novabank.com",
			"/v1/verdicts?url=http://lure.test/57",
			"/v1/verdicts?url=http://land.test/7",
			"/v1/verdicts?phish_only=true&limit=2",
			"/v1/verdicts?since=2026-09-01T06:50:00Z",
		} {
			got, want, _ := get(path, false)
			same(path, got, want)
			if bytes.Contains(got, []byte("next_cursor")) || !bytes.Contains(got, []byte(`"records":[{`)) {
				t.Errorf("GET %s: not a v1 document with records: %s", path, got)
			}
		}
		got, want, _ := get("/v1/verdicts?target=unknown.example", false)
		same("v1 empty", got, want)
		if string(got) != `{"records":null,"count":0}`+"\n" {
			t.Errorf("v1 empty result = %s", got)
		}
		got, want, _ = get("/v2/verdicts?target=unknown.example", true)
		same("v2 empty", got, want)
		if string(got) != `{"records":[],"count":0}`+"\n" {
			t.Errorf("v2 empty result = %s", got)
		}

		// Full v2 cursor walks, unfiltered and filtered.
		for _, filter := range []string{"", "&phish_only=true", "&target=novabank.com&until=2026-09-01T06:58:00Z"} {
			for _, limit := range []int{1, 7, 100} {
				pages, records, cursor := 0, 0, ""
				for {
					path := "/v2/verdicts?limit=" + strconv.Itoa(limit) + filter
					if cursor != "" {
						path += "&cursor=" + cursor
					}
					got, want, next := get(path, true)
					same(path, got, want)
					var pr VerdictsPageResponse
					if err := json.Unmarshal(got, &pr); err != nil {
						t.Fatalf("GET %s: %v", path, err)
					}
					if pr.NextCursor != next || bytes.Contains(got, []byte("next_cursor")) != (next != "") {
						t.Fatalf("GET %s: next_cursor %q in %s, store said %q", path, pr.NextCursor, got, next)
					}
					pages++
					records += pr.Count
					if cursor = next; cursor == "" {
						break
					}
				}
				if filter == "" && (records != b.Len() || pages != (b.Len()+limit-1)/limit) {
					t.Errorf("limit %d: walked %d records over %d pages of a %d-record store", limit, records, pages, b.Len())
				}
			}
		}
	})
}

// TestVerdictsCorruptFrameIs500: the envelope is written only once the
// whole page passed its CRCs, so a bad frame in the middle is an error
// document, never the start of a page.
func TestVerdictsCorruptFrameIs500(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	b, err := store.Open(store.Config{Path: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	for i := 0; i < 9; i++ {
		u := "http://u.test/" + strconv.Itoa(i)
		if err := b.Append(context.Background(), store.Record{URL: u, LandingURL: u, ScoredAt: time.Unix(int64(i), 0).UTC()}); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, func(cfg *Config) { cfg.Store = b })
	for _, path := range []string{"/v1/verdicts", "/v2/verdicts"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" ||
			bytes.Contains(rec.Body.Bytes(), []byte("records")) {
			t.Errorf("GET %s over a corrupt frame: status %d, body %s (decode err %v); want a 500 error document", path, rec.Code, rec.Body.String(), err)
		}
	}
	// The page that stops short of the bad frame is still served.
	if code := call(t, s, http.MethodGet, "/v2/verdicts?limit=2", nil, nil); code != http.StatusOK {
		t.Errorf("GET of the newest two: status %d", code)
	}
}

// TestVerdictsPageAllocs pins what one 100-record /v2/verdicts page
// costs through ServeHTTP, request and recorder included: a fixed
// handful of allocations — query parsing, the cursor, the headers — and
// none per record. Decoding every frame into a Record and
// re-marshalling the page made 1 530. In bytes, the page's frames and
// body come from pooled buffers, so what is left beside the recorder's
// copy of the body is a few KB that do not grow with the page; reading
// the frames into a fresh buffer and regrowing the body made about
// twice the body's size more.
func TestVerdictsPageAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts"), SegmentBytes: 64 << 10, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	for i := 0; i < 500; i++ {
		r := store.Record{
			URL:         "http://lure.test/" + strconv.Itoa(i),
			LandingURL:  "http://land.test/" + strconv.Itoa(i),
			Fingerprint: "fp",
			Target:      "novabank.com",
			Outcome:     core.Outcome{Score: 0.9, DetectorPhish: true, FinalPhish: true},
			ScoredAt:    time.Date(2026, 7, 1, 0, 0, i, 0, time.UTC),
		}
		if err := b.Append(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Segments < 2 {
		t.Fatalf("fixture store has %d segment(s), want several", st.Segments)
	}
	s := newServer(t, func(cfg *Config) { cfg.Store = b })
	var last *httptest.ResponseRecorder
	allocs := testing.AllocsPerRun(50, func() {
		req := httptest.NewRequest(http.MethodGet, "/v2/verdicts?limit=100", nil)
		last = httptest.NewRecorder()
		s.ServeHTTP(last, req)
	})
	var pr VerdictsPageResponse
	if err := json.Unmarshal(last.Body.Bytes(), &pr); err != nil || last.Code != http.StatusOK || pr.Count != 100 || pr.NextCursor == "" {
		t.Fatalf("status %d, %d records, cursor %q (err %v); want a full page with a cursor", last.Code, pr.Count, pr.NextCursor, err)
	}
	// One P, as AllocsPerRun runs: a goroutine that moves to another P
	// misses the pooled buffers its last page put back on the first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v2/verdicts?limit=100", nil)
		last = httptest.NewRecorder()
		s.ServeHTTP(last, req)
	}
	runtime.ReadMemStats(&after)
	perPage := (after.TotalAlloc - before.TotalAlloc) / runs
	body := uint64(last.Body.Len())
	t.Logf("one 100-record page: %.0f allocs, %d B for a %d-byte body", allocs, perPage, body)
	if allocs > 40 {
		t.Errorf("one 100-record page = %.0f allocs, budget 40", allocs)
	}
	if limit := body + 8<<10; perPage > limit {
		t.Errorf("one 100-record page allocated %d B for a %d-byte body, budget %d", perPage, body, limit)
	}
}

// churnRecord is record i of TestVerdictPagesConcurrentReaders' log.
// Every field is a function of i, so a record whose bytes came from
// another page, or from a buffer rewritten under it, does not check
// out; landing URLs repeat every 40 records, so the log is mostly
// superseded frames and compaction always has work.
func churnRecord(i int) store.Record {
	r := store.Record{
		URL:         "http://lure.test/" + strconv.Itoa(i),
		LandingURL:  "http://land.test/" + strconv.Itoa(i%40),
		Fingerprint: "fp",
		Outcome:     core.Outcome{Score: float64(i%100) / 100},
		ScoredAt:    time.Date(2026, 9, 1, 6, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
	}
	if i%4 == 0 {
		r.Target = "novabank.com"
		r.Outcome = core.Outcome{Score: 0.95, DetectorPhish: true, TargetRun: true, FinalPhish: true}
	}
	return r
}

// checkChurnPage decodes a verdicts body and checks every record: it is
// byte for byte what churnRecord marshals under its seq, it passes
// keep, and seqs fall strictly, from below before (0: no bound). It
// returns the page's records and cursor.
func checkChurnPage(body []byte, before uint64, keep func(store.Record) bool) ([]store.Record, string, error) {
	var page struct {
		Records    []json.RawMessage `json:"records"`
		Count      int               `json:"count"`
		NextCursor string            `json:"next_cursor"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return nil, "", fmt.Errorf("body does not decode: %v: %.200s", err, body)
	}
	if page.Count != len(page.Records) {
		return nil, "", fmt.Errorf("count %d for %d records", page.Count, len(page.Records))
	}
	recs := make([]store.Record, len(page.Records))
	for i, raw := range page.Records {
		r := &recs[i]
		if err := json.Unmarshal(raw, r); err != nil {
			return nil, "", fmt.Errorf("record %d does not decode: %v: %s", i, err, raw)
		}
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL, "http://lure.test/"))
		if err != nil {
			return nil, "", fmt.Errorf("record %d: url %q", i, r.URL)
		}
		want := churnRecord(n)
		want.Seq = r.Seq
		if doc, _ := json.Marshal(want); !bytes.Equal(raw, doc) {
			return nil, "", fmt.Errorf("record %d is not record %d:\n got: %s\nwant: %s", i, n, raw, doc)
		}
		if !keep(*r) {
			return nil, "", fmt.Errorf("record %d (seq %d) does not match the filter: %s", i, r.Seq, raw)
		}
		if before != 0 && r.Seq >= before {
			return nil, "", fmt.Errorf("record %d: seq %d after seq %d", i, r.Seq, before)
		}
		before = r.Seq
	}
	return recs, page.NextCursor, nil
}

// slowWriter is a client connection that takes a body a kilobyte at a
// time, letting other goroutines run in between, as a socket whose
// buffer is full does.
type slowWriter struct{ *httptest.ResponseRecorder }

func (w *slowWriter) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		runtime.Gosched()
		m, err := w.ResponseRecorder.Write(p[:min(len(p), 1<<10)])
		n, p = n+m, p[m:]
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestVerdictPagesConcurrentReaders: pages are served from pooled
// buffers, so a buffer handed back before its body was written would
// show up as a page made of another page's bytes. While one goroutine
// appends and another compacts, eight readers page /v2/verdicts (and
// /v1) with different filters, each taking its bodies slowly; every
// body must decode, every record must be its own and match its filter,
// and seqs must fall strictly along each cursor walk. With the writers
// stopped, concurrent readers of one page must get the same bytes.
func TestVerdictPagesConcurrentReaders(t *testing.T) {
	b, err := store.Open(store.Config{Path: filepath.Join(t.TempDir(), "verdicts"), SegmentBytes: 4 << 10, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	const seeded = 300
	for i := 0; i < seeded; i++ {
		if err := b.Append(context.Background(), churnRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := newServer(t, func(cfg *Config) { cfg.Store = b })
	get := func(path string) ([]byte, error) {
		rec := &slowWriter{httptest.NewRecorder()}
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			return nil, fmt.Errorf("Content-Length %s for %d bytes", cl, rec.Body.Len())
		}
		return rec.Body.Bytes(), nil
	}

	since, until := churnRecord(seeded/2).ScoredAt, churnRecord(seeded/3).ScoredAt
	readers := []struct {
		query string
		keep  func(store.Record) bool
	}{
		{"/v2/verdicts?limit=7", func(store.Record) bool { return true }},
		{"/v2/verdicts?limit=100", func(store.Record) bool { return true }},
		{"/v2/verdicts?target=novabank.com&limit=25", func(r store.Record) bool { return r.Target == "novabank.com" }},
		{"/v2/verdicts?phish_only=true&limit=40", func(r store.Record) bool { return r.Outcome.FinalPhish }},
		{"/v2/verdicts?until=" + until.Format(time.RFC3339) + "&limit=13", func(r store.Record) bool { return r.ScoredAt.Before(until) }},
		{"/v2/verdicts?target=novabank.com&since=" + since.Format(time.RFC3339) + "&limit=50",
			func(r store.Record) bool { return r.Target == "novabank.com" && !r.ScoredAt.Before(since) }},
		{"/v2/verdicts?since=" + since.Format(time.RFC3339) + "&limit=30", func(r store.Record) bool { return !r.ScoredAt.Before(since) }},
		{"/v1/verdicts?url=http://land.test/7&limit=100", func(r store.Record) bool { return r.LandingURL == "http://land.test/7" }},
	}

	var stop atomic.Bool
	var writers sync.WaitGroup
	writers.Add(2)
	go func() { // appender
		defer writers.Done()
		for i := seeded; !stop.Load(); i++ {
			if err := b.Append(context.Background(), churnRecord(i)); err != nil {
				t.Error(err)
				return
			}
			if i%8 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	go func() { // compactor
		defer writers.Done()
		for !stop.Load() {
			if err := b.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var readersDone sync.WaitGroup
	for _, rd := range readers {
		readersDone.Add(1)
		go func() {
			defer readersDone.Done()
			cursor, before := "", uint64(0)
			for range 40 {
				path := rd.query
				if cursor != "" {
					path += "&cursor=" + cursor
				}
				body, err := get(path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				recs, next, err := checkChurnPage(body, before, rd.keep)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				// A walk ends when its cursor does; the next one starts
				// from the newest record again.
				cursor, before = next, 0
				if next != "" {
					before = recs[len(recs)-1].Seq
				}
			}
		}()
	}
	readersDone.Wait()
	stop.Store(true)
	writers.Wait()
	if t.Failed() {
		return
	}
	if st := b.Stats(); st.Compactions == 0 || st.Superseded == 0 {
		t.Fatalf("store = %+v: compaction never dropped a frame under the readers", st)
	}

	// Quiet store: one page, read concurrently, is one body.
	for _, path := range []string{"/v2/verdicts?limit=100&phish_only=true", "/v1/verdicts?target=novabank.com"} {
		want, err := get(path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var same sync.WaitGroup
		for range 8 {
			same.Add(1)
			go func() {
				defer same.Done()
				for range 10 {
					got, err := get(path)
					if err != nil || !bytes.Equal(got, want) {
						t.Errorf("GET %s: %d bytes (err %v) differ from the %d read before", path, len(got), err, len(want))
						return
					}
				}
			}()
		}
		same.Wait()
	}
}
