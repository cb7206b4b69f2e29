package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"knowphish/internal/crawl"
	"knowphish/internal/htmlx"
	"knowphish/internal/racecheck"
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
// request costs once the pool is warm: the limit reader, two URLs, the
// chain and its two entries — each string once, at its exact size —
// and nothing that scales with the body: the HTML is a view of the
// pooled body buffer. The json.Decoder it replaced made 22 allocations
// and 24.6 KB of this body.
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
		body, ok := s.decode(w, r, &req)
		if !ok {
			t.Fatalf("decode failed: %s", w.Body.String())
		}
		putBuf(body)
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
	if allocs > 8 {
		t.Errorf("decode allocated %.0f times, budget 8", allocs)
	}
	if limit := uint64(1 << 10); perDecode > limit {
		t.Errorf("decode allocated %d B for a %d-byte body, budget %d", perDecode, len(body), limit)
	}
}

// TestBodyPoolDropsLargeBuffers: the buffer a 2 MiB body was read into
// is garbage, not pool content; an ordinary one is kept.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	s := newServer(t, func(cfg *Config) { cfg.MaxBodyBytes = 4 << 20 })
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
		if _, err := buf.ReadFrom(http.MaxBytesReader(httptest.NewRecorder(), r.Body, s.cfg.MaxBodyBytes)); err != nil {
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

// TestBorrowedHTMLDoesNotOutliveResolve: the html of a single-page
// request is a view of the pooled body buffer, and nothing made of it
// may still read that buffer once the handler has given it back — not
// the snapshot, its content key, the response or the memo's entries.
// Everything is held to what an owned copy of the same html gives.
func TestBorrowedHTMLDoesNotOutliveResolve(t *testing.T) {
	// A generated phishing page the detector flags, so that scoring it
	// writes a target entry to the memo.
	c, _ := fixtures(t)
	rng := rand.New(rand.NewSource(3))
	probe := newServer(t, nil)
	var canonical []byte
	for tries := 0; canonical == nil; tries++ {
		if tries == 50 {
			t.Fatal("no generated phishing page was a detector positive")
		}
		page, ok := workloadPage(c.World, c.World.NewPhishSite(rng, c.World.RandomPhishOptions(rng)))
		if !ok {
			continue
		}
		page.HTML += `<a href="https://abs.example.test/login">abs</a> <a href="/top/only">top</a> <a href="rel/page.html">rel</a>` +
			`<iframe src="https://frame.example.test/inner"></iframe><iframe src="frames/local.html"></iframe>` +
			`<p>Café "sign in" < now</p>`
		var resp V2ScoreResponse
		if call(t, probe, http.MethodPost, "/v2/score", page, &resp) == http.StatusOK && resp.TargetRun {
			b, err := json.Marshal(page)
			if err != nil {
				t.Fatal(err)
			}
			canonical = b
		}
	}
	// json.Marshal writes é raw; a client may escape it.
	canonical = bytes.ReplaceAll(canonical, []byte("é"), []byte(`\u00e9`))
	for _, esc := range []string{`\u003c`, `\"`, `\u00e9`} {
		if !bytes.Contains(canonical, []byte(esc)) {
			t.Fatalf("the test body has no %s escape", esc)
		}
	}
	// encoding/json matches keys case-insensitively and the scanner does
	// not, so this body means the same page and is decoded owned.
	owned := bytes.Replace(canonical, []byte(`"html":`), []byte(`"HTML":`), 1)

	// The snapshot and its key, resolved from the borrowed html.
	var want PageRequest
	if err := json.Unmarshal(owned, &want); err != nil {
		t.Fatal(err)
	}
	wantSnap, wantKey, err := want.resolve()
	if err != nil {
		t.Fatal(err)
	}
	var got PageRequest
	body, ok := probe.decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(canonical)), &got)
	if !ok {
		t.Fatal("decode failed")
	}
	mem := body.Bytes()
	mem = mem[:cap(mem)]
	if !within(got.HTML, mem) {
		t.Fatal("the html was copied, not borrowed from the body")
	}
	snap, key, err := got.resolve()
	if err != nil {
		t.Fatal(err)
	}
	// The whole link array htmlx.Parse built, iframe entries included:
	// the snapshot's two lists, then the sources no list shows.
	iframes := len(htmlx.Parse(want.HTML).IFrameSrcs)
	nh, nl := len(snap.HREFLinks), len(snap.LoggedLinks)
	if nh == 0 || nl == 0 || iframes < 2 {
		t.Fatalf("the test page has %d href links, %d logged links, %d iframe sources", nh, nl, iframes)
	}
	links := unsafe.Slice(unsafe.SliceData(snap.HREFLinks), nh+nl+iframes)
	if &links[nh] != &snap.LoggedLinks[0] {
		t.Fatal("the snapshot's link lists are not one array")
	}
	for i, l := range links {
		if within(l, mem) {
			t.Errorf("link %d %q still points into the request body", i, l)
		}
	}
	for i := range mem {
		mem[i] = '#'
	}
	putBuf(body)
	if !reflect.DeepEqual(snap, wantSnap) {
		t.Errorf("snapshot changed with the body it was resolved from:\n %+v\nwant\n %+v", snap, wantSnap)
	}
	if key != wantKey || webpage.ContentKey(snap) != wantKey {
		t.Errorf("content key %x (recomputed %x), want %x", key, webpage.ContentKey(snap), wantKey)
	}

	// The four endpoints, on twin servers fed the borrowed and the owned
	// body. The first request scores the page and fills the memo; the
	// closing /v2/score is answered from it, target entry included,
	// after every pooled buffer has been overwritten several times over.
	borrowing, owning := newServer(t, nil), newServer(t, nil)
	paths := []string{"/v1/score", "/v2/score", "/v1/target", "/v2/target"}
	for i, path := range append(paths, "/v2/score") {
		got, err := postRaw(borrowing, path, canonical)
		if err != nil {
			t.Fatal(err)
		}
		scribblePooledBuffers()
		want, err := postRaw(owning, path, owned)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: borrowed html answered\n %s\nowned html\n %s", path, got, want)
		}
		if i == len(paths) {
			var resp V2ScoreResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.Cached || !resp.TargetRun {
				t.Errorf("the closing /v2/score was not a memo hit with a target result: cached %v, target_run %v", resp.Cached, resp.TargetRun)
			}
		}
	}

	// Concurrent requests, each taking its body buffer from the pool the
	// others give theirs back to, answer as the owned html does.
	wantResp := make(map[string][]byte)
	for _, path := range paths {
		if wantResp[path], err = postRaw(owning, path, owned); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				path := paths[(g+i)%len(paths)]
				if got, err := postRaw(borrowing, path, canonical); err != nil || !bytes.Equal(got, wantResp[path]) {
					t.Errorf("%s, concurrently: %v\n %s\nwant\n %s", path, err, got, wantResp[path])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// postRaw posts body to path and returns the 200 response's bytes, the
// identification wall time of a /v2/target response zeroed.
func postRaw(s *Server, path string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if path != "/v2/target" {
		return rec.Body.Bytes(), nil
	}
	var resp V2TargetResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	resp.ElapsedUS = 0
	return json.Marshal(resp)
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
