package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/obs"
	"knowphish/internal/racecheck"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// oracleDecode is the decoder decodeDoc replaced and still falls back
// to: encoding/json with unknown fields disallowed and nothing allowed
// after the document.
func oracleDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// checkDoc holds b to the scanner's contract for both document types:
// a document it takes decodes to exactly what encoding/json decodes, a
// document it declines leaves the destination as it was, and decodeDoc
// ends with encoding/json's value and error text either way. It reports
// whether the v2 scanner took the document.
//
// The scanner and decodeDoc each decode a copy of b, in place: what
// they borrow from their copy must equal encoding/json's owned decode
// of b (checkBorrowed), and a copy they decline must come back byte
// for byte as it went in.
func checkDoc(t testing.TB, b []byte) bool {
	t.Helper()
	marker := V2ScoreRequest{
		PageRequest:  PageRequest{HTML: "kept", RedirectionChain: []string{"kept"}},
		ScoreOptions: ScoreOptions{Explain: "kept", TopFeatures: 7, SkipTarget: true},
	}

	var want V2ScoreRequest
	wantErr := oracleDecode(b, &want)
	var got V2ScoreRequest
	in := bytes.Clone(b)
	took := scanScoreDoc(in, &got.PageRequest, &got.ScoreOptions)
	switch {
	case took && wantErr != nil:
		t.Fatalf("scanner took %q, encoding/json says %v", b, wantErr)
	case took && !reflect.DeepEqual(got, want):
		t.Fatalf("scanner decoded %q to\n %#v\nencoding/json to\n %#v", b, got, want)
	case took:
		checkBorrowed(t, b, in, &got.PageRequest, &want.PageRequest)
		if got.ScoreOptions != want.ScoreOptions {
			t.Fatalf("options of %q changed with the buffer they were decoded from: %#v", b, got.ScoreOptions)
		}
	case !took:
		kept := marker
		kept.RedirectionChain = []string{"kept"}
		if scanScoreDoc(in, &kept.PageRequest, &kept.ScoreOptions) || !reflect.DeepEqual(kept, marker) {
			t.Fatalf("scanner declined %q but wrote %#v", b, kept)
		}
		if !bytes.Equal(in, b) {
			t.Fatalf("scanner declined %q but rewrote it to %q", b, in)
		}
	}
	var viaDoc V2ScoreRequest
	in = bytes.Clone(b)
	if err := decodeDoc(in, &viaDoc); !sameError(err, wantErr) || !reflect.DeepEqual(viaDoc, want) {
		t.Fatalf("decodeDoc(%q) = %#v, %v; encoding/json %#v, %v", b, viaDoc, err, want, wantErr)
	}
	if !took && !bytes.Equal(in, b) {
		t.Fatalf("decodeDoc left %q to encoding/json but rewrote it to %q", b, in)
	}

	// The v1 document: the same scanner with the option keys declined.
	var wantPage, gotPage, viaDocPage PageRequest
	wantErr = oracleDecode(b, &wantPage)
	in = bytes.Clone(b)
	if scanScoreDoc(in, &gotPage, nil) {
		if wantErr != nil || !reflect.DeepEqual(gotPage, wantPage) {
			t.Fatalf("v1 scanner decoded %q to %#v; encoding/json %#v, %v", b, gotPage, wantPage, wantErr)
		}
		checkBorrowed(t, b, in, &gotPage, &wantPage)
	} else if !reflect.DeepEqual(gotPage, PageRequest{}) || !bytes.Equal(in, b) {
		t.Fatalf("v1 scanner declined %q but wrote %#v, %q", b, gotPage, in)
	}
	if err := decodeDoc(bytes.Clone(b), &viaDocPage); !sameError(err, wantErr) || !reflect.DeepEqual(viaDocPage, wantPage) {
		t.Fatalf("decodeDoc(%q) = %#v, %v; encoding/json %#v, %v", b, viaDocPage, err, wantPage, wantErr)
	}
	return took
}

// checkBorrowed holds a page the scanner took from in, a copy of b, to
// the borrowing rule: its html lies in in, and once in is overwritten
// everything else still equals want, encoding/json's decode of b.
func checkBorrowed(t testing.TB, b, in []byte, got, want *PageRequest) {
	t.Helper()
	if got.HTML != "" && !within(got.HTML, in) {
		t.Fatalf("html of %q is not a view of the buffer it was decoded from", b)
	}
	for i := range in {
		in[i] = '#'
	}
	owned, wantOwned := *got, *want
	owned.HTML, wantOwned.HTML = "", ""
	if !reflect.DeepEqual(owned, wantOwned) {
		t.Fatalf("decoding %q: strings besides html changed with the buffer: %#v", b, owned)
	}
}

// within reports whether s lies in the memory of b.
func within(s string, b []byte) bool {
	if len(s) == 0 || cap(b) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p < lo+uintptr(cap(b))
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// canonicalDocs must be taken by the scanner.
var canonicalDocs = []string{
	`{}`,
	` { } `,
	`{"html":"<p>x</p>","landing_url":"http://a.test/"}`,
	"\t{ \"html\" : \"<p>x</p>\" ,\r\n \"landing_url\" : \"http://a.test/\" }\n",
	`{"landing_url":"http://a.test/","starting_url":"http://b.test/","html":"x"}`,
	`{"html":"","starting_url":"","landing_url":"","explain":"","cache_control":""}`,
	`{"html":"x","landing_url":"u","redirection_chain":[]}`,
	`{"html":"x","landing_url":"u","redirection_chain":[ ]}`,
	`{"html":"x","landing_url":"u","redirection_chain":["http://a.test/"]}`,
	`{"html":"x","landing_url":"u","redirection_chain":[ "a" , "b/c" ,"" ]}`,
	`{"html":"x","landing_url":"u","explain":"top","top_features":4,"deadline_ms":250,"skip_target":true,"cache_control":"no-memo"}`,
	`{"skip_target":false,"deadline_ms":0,"top_features":-0}`,
	`{"deadline_ms":-12,"top_features":-3}`,
	`{"deadline_ms":999999999999999999}`,
	// Every escape, as json.Marshal writes them and as a hand may.
	`{"html":"\u003cp\u003e \"q\" \/ \u00e9 \u00E9 \n\r\t\b\f \\ \u0026 \u2028\u2029 \u0000 \u001f \ufffd \uffff \ud7ff\ue000\u003c\/p\u003e"}`,
	"{\"html\":\"raw \u00e9 \u65e5\u672c\u8a9e \U0001F600 \x7f \ud7ff \ue000 \ufffd \U0010FFFF\"}",
	`{"html":"\\u003c is not an escape"}`,
}

// declinedDocs must be left to encoding/json, which accepts some of
// them (with another meaning than the bytes suggest) and rejects others.
var declinedDocs = []string{
	``,
	` `,
	`null`,
	`[]`,
	`"html"`,
	`{"snapshot":{"landing_url":"http://a.test/"}}`,
	`{"snapshot":null}`,
	`{"html":null}`,
	`{"redirection_chain":null}`,
	`{"redirection_chain":[null]}`,
	`{"redirection_chain":["a",1]}`,
	`{"redirection_chain":["a",]}`,
	`{"redirection_chain":"a"}`,
	`{"html":"a","html":"b"}`,
	`{"HTML":"a"}`,
	`{"Html":"a","html":"b"}`,
	`{"landing_URL":"a"}`,
	`{"\u0068tml":"a"}`,
	`{"unknown":"a"}`,
	`{"":"a"}`,
	`{"html":1}`,
	`{"html":true}`,
	`{"html":["a"]}`,
	`{"skip_target":"true"}`,
	`{"skip_target":1}`,
	`{"skip_target":truex}`,
	`{"skip_target":TRUE}`,
	`{"deadline_ms":"5"}`,
	`{"deadline_ms":1.5}`,
	`{"deadline_ms":1e3}`,
	`{"deadline_ms":01}`,
	`{"deadline_ms":-}`,
	`{"deadline_ms":+1}`,
	`{"deadline_ms":1000000000000000000}`,
	`{"deadline_ms":99999999999999999999}`,
	`{"top_features":2.0}`,
	`{"html":"a` + "\n" + `b"}`,
	`{"html":"a` + "\x00" + `b"}`,
	`{"html":"a` + "\x1f" + `b"}`,
	`{"html":"bad utf8 ` + "\xff" + `"}`,
	`{"html":"cut utf8 ` + "\xe6\x97" + `"}`,
	`{"html":"encoded surrogate ` + "\xed\xa0\x80" + `"}`,
	`{"html":"\ud83d\ude00"}`,
	`{"html":"\ud83d"}`,
	`{"html":"\ude00 lone low"}`,
	`{"html":"\x41"}`,
	`{"html":"\u12"}`,
	`{"html":"\u12g4"}`,
	`{"html":"\`,
	`{"html":"\u`,
	`{"html":"unterminated}`,
	`{"html":"a"`,
	`{"html":"a",}`,
	`{"html":"a" "landing_url":"b"}`,
	`{"html" "a"}`,
	`{"html":}`,
	`{html:"a"}`,
	`{,}`,
	`{"html":"a"}{"html":"b"}`,
	`{"html":"a"} garbage`,
	`{"html":"a"} {}`,
	`{"html":"a"}` + "\x00",
	"\xef\xbb\xbf" + `{"html":"a"}`,
	"\v" + `{"html":"a"}`,
}

func TestDecodeDocMatchesEncodingJSON(t *testing.T) {
	for _, doc := range canonicalDocs {
		if !checkDoc(t, []byte(doc)) {
			t.Errorf("scanner declined the canonical document %q", doc)
		}
	}
	for _, doc := range declinedDocs {
		if checkDoc(t, []byte(doc)) {
			t.Errorf("scanner took %q", doc)
		}
	}

	// Option keys belong to the v2 document only.
	var page PageRequest
	if scanScoreDoc([]byte(`{"html":"x","explain":"top"}`), &page, nil) {
		t.Error("v1 scanner took an option key")
	}

	// No prefix of a document is a document; none may panic either.
	body := scoreBody(t)
	for n := 0; n < len(body); n++ {
		if checkDoc(t, body[:n:n]) {
			t.Fatalf("scanner took the %d-byte prefix of a %d-byte document", n, len(body))
		}
	}
}

// workloadPage resolves a generated site the way the repository
// benchmark's workloads submit it: redirects followed from the starting
// URL, the landing page's HTML, the whole chain.
func workloadPage(w *webgen.World, site *webgen.Site) (PageRequest, bool) {
	f := crawl.Compose(site, w)
	p := PageRequest{StartingURL: site.StartURL, LandingURL: site.StartURL, RedirectionChain: []string{site.StartURL}}
	for {
		page, ok := f.Fetch(p.LandingURL)
		if !ok || len(p.RedirectionChain) > 10 {
			return p, false
		}
		if page.RedirectTo == "" {
			p.HTML = page.HTML
			return p, p.HTML != ""
		}
		p.LandingURL = page.RedirectTo
		p.RedirectionChain = append(p.RedirectionChain, p.LandingURL)
	}
}

// hostileStrings are what encoding/json escapes or rewrites on the way
// out: HTML-sensitive characters, the JavaScript line separators,
// invalid UTF-8 (each bad byte becomes \ufffd), control bytes, and
// runes outside the Basic Multilingual Plane (written raw, never as
// surrogate pairs).
var hostileStrings = []string{
	`<script>a && b</script>`,
	"line\u2028para\u2029end",
	"bad \xff\xfe bytes, cut \xe6\x97, encoded surrogate \xed\xa0\x80",
	"ctl \x00\x01\x08\x0c\x1f\x7f \n\r\t",
	"astral \U0001F600 \U0010FFFF",
	`quote " backslash \\ slash /`,
}

// TestMarshalledRequestsTakeFastPath: every document json.Marshal writes
// for the pages the benchmark workloads draw — legitimate sites in all
// six languages and phishing sites with their redirect chains, as
// PageRequest and as V2ScoreRequest — is taken by scanScoreDoc and
// decodes to what encoding/json stores, hostile strings included. Only
// hand-written or malformed documents are left to the fallback.
func TestMarshalledRequestsTakeFastPath(t *testing.T) {
	w := webgen.New(webgen.Config{Seed: 29, Brands: 40, RankedGenerics: 40, VocabularyWords: 80})
	rng := rand.New(rand.NewSource(29))
	var pages []PageRequest
	redirected := 0
	for i := 0; len(pages) < 48; i++ {
		site := w.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.Languages[i%len(webgen.Languages)]})
		if i%2 == 1 {
			site = w.NewPhishSite(rng, w.RandomPhishOptions(rng))
		}
		if p, ok := workloadPage(w, site); ok {
			pages = append(pages, p)
			if len(p.RedirectionChain) > 1 {
				redirected++
			}
		}
	}
	if redirected == 0 {
		t.Fatal("no generated page followed a redirect")
	}
	check := func(v any) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !checkDoc(t, b) {
			t.Fatalf("scanner declined a marshalled request: %.300q", b)
		}
		if _, isPage := v.(PageRequest); isPage {
			var page PageRequest
			if !scanScoreDoc(b, &page, nil) {
				t.Fatalf("v1 scanner declined a marshalled page: %.300q", b)
			}
		}
	}
	for i, p := range pages {
		check(p)
		check(V2ScoreRequest{PageRequest: p})
		h := hostileStrings[i%len(hostileStrings)]
		hostile := PageRequest{
			HTML:             p.HTML + h,
			StartingURL:      p.StartingURL + h,
			LandingURL:       p.LandingURL + "#" + h,
			RedirectionChain: append(append([]string(nil), p.RedirectionChain...), p.LandingURL+"?next="+h),
		}
		check(hostile)
		check(V2ScoreRequest{PageRequest: hostile, ScoreOptions: ScoreOptions{
			Explain: h, CacheControl: h, TopFeatures: i, DeadlineMS: int64(i) * 7, SkipTarget: i%2 == 0,
		}})
	}
}

func FuzzDecodeDoc(f *testing.F) {
	for _, doc := range canonicalDocs {
		f.Add([]byte(doc))
	}
	for _, doc := range declinedDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkDoc(t, b) })
}

// scoreBody is a canonical /v2/score body of about 6 KB: some 3.5 KB of
// HTML (markup escaped as json.Marshal escapes it), two URLs and a
// two-entry chain.
func scoreBody(t testing.TB) []byte {
	t.Helper()
	var html strings.Builder
	html.WriteString("<html><head><title>Account sign-in</title></head><body>")
	for i := 0; html.Len() < 3500; i++ {
		html.WriteString(`<p class="row">Please <a href="http://login.example.test/step?id=`)
		html.WriteString(strings.Repeat("x", i%7))
		html.WriteString(`&amp;next=1">confirm</a> your details — "now"</p>` + "\n")
	}
	html.WriteString("</body></html>")
	body, err := json.Marshal(V2ScoreRequest{PageRequest: PageRequest{
		HTML:             html.String(),
		StartingURL:      "http://short.example.test/r/1",
		LandingURL:       "https://login.example.test/signin",
		RedirectionChain: []string{"http://short.example.test/r/1", "https://login.example.test/signin"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDecodeScoreAllocBudget pins what reading and decoding a score
// request costs once the pool is warm: the body declares its length, so
// it is read without a limit reader, and its URLs — two, and a chain of
// two entries that are the same two — are decoded into one allocation
// beside the chain's array (a fresh destination each time; the pooled
// call of a handler lends its own). Nothing scales with the body: the
// HTML is a view of the pooled body buffer.
func TestDecodeScoreAllocBudget(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := newServer(t, nil)
	body := scoreBody(t)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v2/score", rd)
	w := httptest.NewRecorder()
	var req V2ScoreRequest
	decode := func() {
		rd.Reset(body)
		req = V2ScoreRequest{}
		if !s.decode(w, r, &req) {
			t.Fatalf("decode failed: %s", w.Body.String())
		}
		req.release()
	}
	decode()
	if len(req.HTML) < 3500 || len(req.RedirectionChain) != 2 {
		t.Fatalf("decoded %d bytes of HTML, chain %q", len(req.HTML), req.RedirectionChain)
	}

	const runs = 200
	allocs := testing.AllocsPerRun(runs, decode)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d-byte body: %.0f allocs, %d B per decode", len(body), allocs, perDecode)
	if allocs > 2 {
		t.Errorf("decode allocated %.0f times, budget 2", allocs)
	}
	if limit := uint64(128); perDecode > limit {
		t.Errorf("decode allocated %d B for a %d-byte body, budget %d", perDecode, len(body), limit)
	}
}

// TestScoreV2WarmHandlerAllocs pins what the /v2/score handler
// allocates for a memo hit on a page of absolute links, once the pools
// are warm: the request's URLs (one allocation, its chain entries
// sharing them), the ETag — one string, whose stem is the document's
// content_fingerprint — and its header value. Request and response
// live in a pooled call, the body is read without a limit reader, the
// Content-Type value is shared, a reply within net/http's response
// buffer leaves Content-Length to net/http, and the request context's
// done channel is never made. The
// page itself costs nothing: its html is a view of the pooled body and
// its snapshot lives in a pooled webpage.Page until the response is
// written. A detector positive's hit costs no more: its target entry is
// decoded into the request's pooled target buffer (decoded onto the
// heap, it costs two more), and its verdict's name is not allocated.
func TestScoreV2WarmHandlerAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := newServer(t, nil)
	arms := []struct {
		name string
		body []byte
	}{
		{"legitimate", scoreBody(t)},
		{"detector positive", positiveBody(t, s, "")},
	}
	for _, arm := range arms {
		serve, w := warmScoreV2(t, s.handleScoreV2, arm.body, "", http.StatusOK)
		var resp V2ScoreResponse
		if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Cached || resp.TargetRun != (arm.name != "legitimate") {
			t.Fatalf("%s: the second request was not a memo hit of its kind: %s", arm.name, w.body.String())
		}
		allocs := testing.AllocsPerRun(handlerRuns, serve)
		t.Logf("warm /v2/score hit, %s: %.0f allocs", arm.name, allocs)
		if allocs > 3 {
			t.Errorf("a warm /v2/score hit on a %s page allocated %.0f times in the handler, want at most 3", arm.name, allocs)
		}
	}
	// Through the mux and the middleware it costs nothing more: the
	// status recorder is pooled and the traceparent header is read by
	// its canonical key.
	serve, _ := warmScoreV2(t, s.ServeHTTP, arms[0].body, "", http.StatusOK)
	allocs := testing.AllocsPerRun(handlerRuns, serve)
	t.Logf("warm /v2/score hit through ServeHTTP: %.0f allocs", allocs)
	if allocs > 3 {
		t.Errorf("a warm /v2/score hit through ServeHTTP allocated %.0f times, want at most 3", allocs)
	}
}

// TestScoreV2RevalidateHandlerAllocs pins a warm conditional /v2/score
// whose If-None-Match lists the tag after another one: the handler
// answers 304 with no body, and walking the candidate list costs
// nothing: the allocations are the warm hit's.
func TestScoreV2RevalidateHandlerAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := newServer(t, nil)
	_, w := warmScoreV2(t, s.handleScoreV2, scoreBody(t), "", http.StatusOK)
	etag := w.header.Get("ETag")
	if etag == "" {
		t.Fatal("a warm /v2/score hit carries no ETag")
	}
	serve, w := warmScoreV2(t, s.handleScoreV2, scoreBody(t), `"0123456789abcdef0123456789abcdef-v9", W/`+etag, http.StatusNotModified)
	if w.body.Len() != 0 {
		t.Fatalf("a 304 wrote a body: %s", w.body.String())
	}
	allocs := testing.AllocsPerRun(handlerRuns, serve)
	t.Logf("warm /v2/score revalidation: %.0f allocs", allocs)
	if allocs > 3 {
		t.Errorf("a warm /v2/score revalidation allocated %.0f times in the handler, want at most 3", allocs)
	}
}

// handlerRuns is how many requests the handler allocation tests count
// over.
const handlerRuns = 200

// warmScoreV2 sends body to /v2/score through h twice, with
// If-None-Match set to ifNoneMatch when it is not empty, and returns a
// function that sends it again — each answer must carry status want —
// and the writer that holds the last answer. The function may be
// called handlerRuns+1 times: AllocsPerRun's warm-up and its runs.
//
// Each request carries a context of its own, cancellable as net/http's
// request context is, made before anything is counted: a handler that
// asks such a context for its done channel allocates the channel, as
// it does in a server, where context.Background() has none to make.
func warmScoreV2(t *testing.T, h http.HandlerFunc, body []byte, ifNoneMatch string, want int) (func(), *discardWriter) {
	t.Helper()
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v2/score", rd)
	if ifNoneMatch != "" {
		r.Header.Set("If-None-Match", ifNoneMatch)
	}
	reqs := make([]*http.Request, handlerRuns+3)
	for i := range reqs {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		reqs[i] = r.WithContext(ctx)
	}
	w := &discardWriter{header: make(http.Header)}
	serve := func() {
		if len(reqs) == 0 {
			t.Fatal("warmScoreV2's function was called more than handlerRuns+3 times")
		}
		rd.Reset(body)
		w.status = 0
		w.body.Reset()
		h(w, reqs[0])
		reqs = reqs[1:]
		if w.status != want {
			t.Fatalf("status %d, want %d: %s", w.status, want, w.body.String())
		}
	}
	serve() // scores the page and fills the memo
	serve()
	return serve, w
}

// discardWriter is a ResponseWriter that keeps the status and the body
// in storage of its own, so a handler's allocations can be counted
// without a recorder's.
type discardWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return d.body.Write(b) }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// TestBodyPoolDropsLargeBuffers: the buffer a 2 MiB body was read into
// is garbage, not pool content; an ordinary one is kept.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	s := newServer(t, nil)
	for _, tc := range []struct {
		htmlBytes int
		pooled    bool
	}{{4 << 10, true}, {2 << 20, false}} {
		body, err := json.Marshal(PageRequest{HTML: strings.Repeat("x", tc.htmlBytes), LandingURL: "http://big.test/"})
		if err != nil {
			t.Fatal(err)
		}
		// What decode does with the body, keeping hold of the buffer.
		buf := getBuf()
		r := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
		if _, err := buf.ReadFrom(http.MaxBytesReader(httptest.NewRecorder(), r.Body, DefaultMaxBodyBytes)); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != len(body) {
			t.Fatalf("read %d of %d bytes", buf.Len(), len(body))
		}
		if got := putBuf(buf); got != tc.pooled {
			t.Errorf("%d-byte body: buffer of capacity %d pooled = %v, want %v", len(body), buf.Cap(), got, tc.pooled)
		}
		// And the endpoint itself takes a body of that size.
		var resp ScoreResponse
		if code := call(t, s, http.MethodPost, "/v1/score", json.RawMessage(body), &resp); code != http.StatusOK {
			t.Errorf("%d-byte body: status %d", len(body), code)
		}
	}
}

// positiveBody is the score request document of a generated phishing
// page, with extra appended to its html, that probe's detector flags:
// scoring it writes a target entry to the memo.
func positiveBody(t *testing.T, probe *Server, extra string) []byte {
	t.Helper()
	c, _ := fixtures(t)
	rng := rand.New(rand.NewSource(3))
	for range 50 {
		page, ok := workloadPage(c.World, c.World.NewPhishSite(rng, c.World.RandomPhishOptions(rng)))
		if !ok {
			continue
		}
		page.HTML += extra
		var resp V2ScoreResponse
		if call(t, probe, http.MethodPost, "/v2/score", page, &resp) == http.StatusOK && resp.TargetRun {
			b, err := json.Marshal(page)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatal("no generated phishing page was a detector positive")
	return nil
}

// wordsBody returns a page request of n distinct words.
func wordsBody(t *testing.T, n int) []byte {
	t.Helper()
	var html strings.Builder
	html.WriteString("<title>zzz yyy</title><p>")
	for i := range n {
		fmt.Fprintf(&html, "overwrite%c%c%c ", 'a'+i%26, 'a'+i/26%26, 'a'+i/676%26)
	}
	b, err := json.Marshal(PageRequest{HTML: html.String(), LandingURL: "http://b.example/"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestVerdictOutlivesItsAnalysis: a verdict's target result owns its
// keyterms, so a verdict rendered after its analysis was released and
// refilled still reads its own page. A one-worker /v2/score/batch
// without the memo scores a page of many words (growing the pooled
// dictionary), then phishing page A, then page B, all on the handler's
// goroutine, before any verdict is written: B's terms overwrite the
// dictionary A's were read from. A's result must answer, JSON byte for
// byte, what /v2/score answers for A alone (timings zeroed).
func TestVerdictOutlivesItsAnalysis(t *testing.T) {
	s := newServer(t, nil)
	page := positiveBody(t, s, "")
	alone, _, err := postRaw(s, "/v2/score", append(bytes.TrimSuffix(bytes.TrimSpace(page), []byte("}")), `,"cache_control":"no-memo"}`...))
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := postRaw(s, "/v2/score/batch", []byte(`{"workers":1,"cache_control":"no-memo","pages":[`+
		string(wordsBody(t, 2000))+`,`+string(page)+`,`+string(wordsBody(t, 500))+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	var want V2ScoreResponse
	var got V2BatchResponse
	if err := json.Unmarshal(alone, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(batch, &got); err != nil {
		t.Fatal(err)
	}
	if !want.TargetRun || len(want.Target.Keyterms.Prominent) == 0 || want.Cached || len(got.Results) != 3 || got.Results[1].Cached {
		t.Fatalf("page A ran no target identification or was not scored cold:\n%s\n%s", alone, batch)
	}
	want.Timings, got.Results[1].Timings = core.StageTimings{}, core.StageTimings{}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Results[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("page A scored before page B in one batch answered\n %s\nalone\n %s", gotJSON, wantJSON)
	}
}

// TestBorrowedHTMLDoesNotOutliveResolve is the page-lifetime test. A
// single-page request's html is a view of the pooled body buffer, and
// the snapshot an html request resolves to lives in pooled parser
// storage (webpage.BorrowHTML), on every page endpoint: both single
// and both target endpoints, each item of both batch endpoints and
// each stream line. Once a handler has returned and both pools have
// been overwritten, nothing the server keeps or writes may read either:
// not a memo entry, an ETag, a response or a trace. Everything is held
// to what a server fed the same page as an owned snapshot answers.
func TestBorrowedHTMLDoesNotOutliveResolve(t *testing.T) {
	// A generated phishing page the detector flags, so that scoring it
	// writes a target entry to the memo.
	probe := newServer(t, nil)
	canonical := positiveBody(t, probe, `<a href="https://abs.example.test/login">abs</a> <a href="/top/only">top</a> <a href="rel/page.html">rel</a>`+
		`<iframe src="https://frame.example.test/inner"></iframe><iframe src="frames/local.html"></iframe>`+
		`<p>Café "sign in" < now</p>`)
	// json.Marshal writes é raw; a client may escape it.
	canonical = bytes.ReplaceAll(canonical, []byte("é"), []byte(`\u00e9`))
	for _, esc := range []string{`\u003c`, `\"`, `\u00e9`} {
		if !bytes.Contains(canonical, []byte(esc)) {
			t.Fatalf("the test body has no %s escape", esc)
		}
	}

	// The owned snapshot of the page, and the request that carries it.
	var want PageRequest
	if err := json.Unmarshal(canonical, &want); err != nil {
		t.Fatal(err)
	}
	wantSnap := webpage.FromHTML(want.StartingURL, want.LandingURL, want.RedirectionChain, want.HTML)
	wantKey := webpage.ContentKey(&wantSnap)
	if len(wantSnap.HREFLinks) == 0 || len(wantSnap.LoggedLinks) == 0 || wantSnap.Copyright == "" {
		t.Fatalf("the test page has %d href links, %d logged links, copyright %q", len(wantSnap.HREFLinks), len(wantSnap.LoggedLinks), wantSnap.Copyright)
	}
	owned, err := json.Marshal(PageRequest{Snapshot: &wantSnap})
	if err != nil {
		t.Fatal(err)
	}

	// The borrowed decode and resolution: the html is a view of the
	// body, and the snapshot resolved from it is the owned one until
	// the request is released.
	var got PageRequest
	if !probe.decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(canonical)), &got) {
		t.Fatal("decode failed")
	}
	mem := got.body.Bytes()
	if !within(got.HTML, mem[:cap(mem)]) {
		t.Fatal("the html was copied, not borrowed from the body")
	}
	snap, key, err := got.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if snap != &got.page.Snapshot {
		t.Fatal("an html request's snapshot is not its borrowed page")
	}
	if !reflect.DeepEqual(*snap, wantSnap) || key != wantKey {
		t.Errorf("borrowed snapshot\n %+v\nkey %x, want\n %+v\nkey %x", *snap, key, wantSnap, wantKey)
	}
	got.release()
	if got.body != nil || got.page != nil {
		t.Error("release kept the body or the page")
	}

	// Every page endpoint, on twin servers: one fed the html, one the
	// owned snapshot. The first request scores the page and fills both
	// memos, so every later score is a hit; the closing /v2/score is one,
	// target entry included, after every pooled buffer and page has been
	// overwritten many times over.
	borrowing := newServer(t, func(cfg *Config) { cfg.Tracer = obs.NewTracer(obs.Config{}) })
	owning := newServer(t, nil)
	batch := func(page []byte) []byte { return []byte(`{"pages":[` + string(page) + `,` + string(page) + `]}`) }
	stream := func(page []byte) []byte { return []byte(string(page) + "\n" + string(page) + "\n") }
	endpoints := []struct {
		path            string
		borrowed, owned []byte
	}{
		{"/v1/score", canonical, owned},
		{"/v2/score", canonical, owned},
		{"/v1/target", canonical, owned},
		{"/v2/target", canonical, owned},
		{"/v1/score/batch", batch(canonical), batch(owned)},
		{"/v2/score/batch", batch(canonical), batch(owned)},
		{"/v2/score/stream", stream(canonical), stream(owned)},
	}
	var etag string
	var missTarget []byte // the target result of the first request, the one miss
	for i, ep := range append(endpoints, endpoints[1]) {
		got, gotTag, err := postRaw(borrowing, ep.path, ep.borrowed)
		if err != nil {
			t.Fatal(err)
		}
		scribblePooledBuffers()
		scribblePages(&wantSnap)
		scribbleTargetBuffers()
		// A hit decodes its target result into the request's pooled
		// target buffer, which the buffers just scribbled over were: the
		// hit must answer the miss's result byte for byte.
		switch targets := targetsOf(t, ep.path, got); {
		case i == 0:
			if len(targets) != 1 {
				t.Fatalf("the first request answered %d target results: %s", len(targets), got)
			}
			missTarget = targets[0]
		case ep.path == "/v2/score" || ep.path == "/v2/score/batch" || ep.path == "/v2/score/stream" || ep.path == "/v1/score/batch":
			if len(targets) == 0 {
				t.Errorf("%s: no target result in %s", ep.path, got)
			}
			for _, tr := range targets {
				if !bytes.Equal(tr, missTarget) {
					t.Errorf("%s: the memo hit's target result\n %s\nthe miss's\n %s", ep.path, tr, missTarget)
				}
			}
		}
		want, wantTag, err := postRaw(owning, ep.path, ep.owned)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || gotTag != wantTag {
			t.Errorf("%s: borrowed page answered\n %s (ETag %s)\nowned snapshot\n %s (ETag %s)", ep.path, got, gotTag, want, wantTag)
		}
		if ep.path == "/v2/score" {
			etag = gotTag
		}
		if i == len(endpoints) {
			var resp V2ScoreResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.Cached || !resp.TargetRun {
				t.Errorf("the closing /v2/score was not a memo hit with a target result: cached %v, target_run %v", resp.Cached, resp.TargetRun)
			}
		}
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v2/score", bytes.NewReader(canonical))
	req.Header.Set("If-None-Match", etag)
	borrowing.ServeHTTP(rec, req)
	if etag == "" || rec.Code != http.StatusNotModified {
		t.Errorf("revalidating ETag %s after the pools were overwritten: status %d", etag, rec.Code)
	}
	rec = httptest.NewRecorder()
	borrowing.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if traces := rec.Body.String(); rec.Code != http.StatusOK || strings.Contains(traces, "##") || strings.Contains(traces, "scribble") {
		t.Errorf("the retained traces read overwritten storage (status %d):\n%s", rec.Code, traces)
	}

	// Concurrent requests, each taking its body buffer and its page from
	// the pools the others give theirs back to while a fifth goroutine
	// overwrites both, answer as the owned snapshot does.
	wantResp := make(map[string][]byte)
	for _, ep := range endpoints {
		if wantResp[ep.path], _, err = postRaw(owning, ep.path, ep.owned); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	scribbled := make(chan struct{})
	go func() {
		defer close(scribbled)
		for {
			select {
			case <-done:
				return
			default:
				scribblePooledBuffers()
				scribblePages(&wantSnap)
				scribbleTargetBuffers()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				ep := endpoints[(g+i)%len(endpoints)]
				if got, _, err := postRaw(borrowing, ep.path, ep.borrowed); err != nil || !bytes.Equal(got, wantResp[ep.path]) {
					t.Errorf("%s, concurrently: %v\n %s\nwant\n %s", ep.path, err, got, wantResp[ep.path])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-scribbled
}

// postRaw posts body to path and returns the 200 response's bytes and
// its ETag. What legitimately differs between two servers is
// normalized: the wall times of target and batch responses are zeroed,
// and stream lines, which complete in any order, are sorted.
func postRaw(s *Server, path string, body []byte) ([]byte, string, error) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, "", fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	out, etag := rec.Body.Bytes(), rec.Header().Get("ETag")
	switch path {
	case "/v2/target", "/v1/score/batch", "/v2/score/batch":
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(out, &doc); err != nil {
			return nil, "", err
		}
		delete(doc, "elapsed_us")
		b, err := json.Marshal(doc)
		return b, etag, err
	case "/v2/score/stream":
		lines := bytes.SplitAfter(out, []byte("\n"))
		slices.SortFunc(lines, bytes.Compare)
		return bytes.Join(lines, nil), etag, nil
	}
	return out, etag, nil
}

// targetsOf returns the target result documents of a postRaw response
// to path, in the order the response holds them (the verdict's, each
// batch result's or each stream line's).
func targetsOf(t *testing.T, path string, body []byte) [][]byte {
	t.Helper()
	var docs []json.RawMessage
	switch path {
	case "/v1/score/batch", "/v2/score/batch":
		var batch struct{ Results []json.RawMessage }
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		docs = batch.Results
	case "/v2/score/stream":
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			docs = append(docs, line)
		}
	default:
		docs = []json.RawMessage{body}
	}
	var out [][]byte
	for _, d := range docs {
		var v struct{ Target json.RawMessage }
		if err := json.Unmarshal(d, &v); err != nil {
			t.Fatal(err)
		}
		if v.Target != nil {
			out = append(out, v.Target)
		}
	}
	return out
}

// scribbleTargetBuffers overwrites the target buffers targetPool holds,
// as requests that decoded larger results into them would: every slot
// names a candidate and a term no page here spells.
func scribbleTargetBuffers() {
	held := make([]*core.TargetBuffer, 64)
	for i := range held {
		b := targetPool.Get().(*core.TargetBuffer)
		b.Candidates = slices.Grow(b.Candidates[:0], 32)[:32]
		for j := range b.Candidates {
			b.Candidates[j] = target.Candidate{RDN: "scribble.example", MLD: "scribble", Count: -1, Score: -1}
		}
		b.Terms = slices.Grow(b.Terms[:0], 32)[:32]
		for j := range b.Terms {
			b.Terms[j] = "scribble"
		}
		held[i] = b
	}
	for _, b := range held {
		targetPool.Put(b)
	}
}

// scribblePages overwrites the pages webpage's pool holds, as the
// requests that take them next would: each is borrowed for a page
// whose title, text and links are longer than snap's.
func scribblePages(snap *webpage.Snapshot) {
	var html strings.Builder
	fill := func(n int) string { return strings.Repeat("scribble ", n/len("scribble ")+2) }
	html.WriteString("<title>" + fill(len(snap.Title)) + "</title><p>" + fill(len(snap.Text)) + "</p>")
	for range len(snap.HREFLinks) + len(snap.LoggedLinks) + 4 {
		html.WriteString(`<a href="scribble">x</a><img src="scribble">`)
	}
	held := make([]*webpage.Page, 64)
	for i := range held {
		held[i] = webpage.BorrowHTML("http://scribble.test/", "http://scribble.test/", nil, html.String())
	}
	for _, pg := range held {
		pg.Release()
	}
}

// scribblePooledBuffers overwrites the buffers bufPool holds, as the
// requests that take them next would.
func scribblePooledBuffers() {
	var held []*bytes.Buffer
	for len(held) < 64 {
		b := bufPool.Get().(*bytes.Buffer)
		if b.Cap() == 0 {
			break
		}
		b.Reset()
		mem := b.Bytes()
		mem = mem[:cap(mem)]
		for i := range mem {
			mem[i] = '#'
		}
		held = append(held, b)
	}
	for _, b := range held {
		bufPool.Put(b)
	}
}
