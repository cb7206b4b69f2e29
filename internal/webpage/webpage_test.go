package webpage

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"knowphish/internal/htmlx"
	"knowphish/internal/racecheck"
	"knowphish/internal/terms"
	"knowphish/internal/urlx"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		StartingURL:      "http://bit.example/r/xyz",
		LandingURL:       "https://www.examplebank.com/login",
		RedirectionChain: []string{"http://bit.example/r/xyz", "https://www.examplebank.com/login"},
		LoggedLinks: []string{
			"https://static.examplebank.com/app.js",
			"https://cdn.thirdparty.net/lib.js",
			"https://www.examplebank.com/logo.png",
		},
		Title: "Example Bank Login",
		Text:  "Welcome to Example Bank. Please enter your credentials to sign in.",
		HREFLinks: []string{
			"https://www.examplebank.com/help",
			"https://partner.example.org/offers",
		},
		Copyright:       "© 2015 Example Bank Inc.",
		InputCount:      2,
		ImageCount:      1,
		ScreenshotTerms: []string{"example bank login secure"},
	}
}

func TestAnalyzeClassification(t *testing.T) {
	a := Analyze(sampleSnapshot())
	if a.Start.RDN != "bit.example" {
		t.Errorf("Start.RDN = %q", a.Start.RDN)
	}
	if a.Land.RDN != "examplebank.com" {
		t.Errorf("Land.RDN = %q", a.Land.RDN)
	}
	// Controlled RDNs: both chain RDNs.
	for _, rdn := range []string{"bit.example", "examplebank.com"} {
		if _, ok := a.ControlledRDNs[rdn]; !ok {
			t.Errorf("ControlledRDNs missing %q", rdn)
		}
	}
	// static.examplebank.com and www.examplebank.com are internal;
	// cdn.thirdparty.net is external.
	if len(a.IntLog) != 2 {
		t.Errorf("IntLog = %d entries, want 2", len(a.IntLog))
	}
	if len(a.ExtLog) != 1 || a.ExtLog[0].RDN != "thirdparty.net" {
		t.Errorf("ExtLog = %+v", a.ExtLog)
	}
	if len(a.IntLink) != 1 || a.IntLink[0].Path != "/help" {
		t.Errorf("IntLink = %+v", a.IntLink)
	}
	if len(a.ExtLink) != 1 || a.ExtLink[0].RDN != "example.org" {
		t.Errorf("ExtLink = %+v", a.ExtLink)
	}
}

func TestAnalyzeDistributions(t *testing.T) {
	a := Analyze(sampleSnapshot())
	if !a.Dist(DistText).Contains("credentials") {
		t.Error("Dtext missing 'credentials'")
	}
	if !a.Dist(DistTitle).Contains("bank") {
		t.Error("Dtitle missing 'bank'")
	}
	if !a.Dist(DistLandRDN).Contains("examplebank") {
		t.Error("Dlandrdn missing 'examplebank'")
	}
	if !a.Dist(DistStartRDN).Contains("bit") {
		t.Error("Dstartrdn missing 'bit' (3 chars, kept by the length filter)")
	}
	if !a.Dist(DistExtRDN).Contains("thirdparty") {
		t.Error("Dextrdn missing 'thirdparty'")
	}
	if !a.Dist(DistCopyright).Contains("bank") {
		t.Error("Dcopyright missing 'bank'")
	}
	if !a.Dist(DistImage).Contains("secure") {
		t.Error("Dimage missing 'secure'")
	}
	// Internal logged FreeURL contains "static", "app" and "logo", "png"...
	if !a.Dist(DistIntLog).Contains("static") {
		t.Error("Dintlog missing 'static'")
	}
	// External link FreeURL contains "offers".
	if !a.Dist(DistExtLink).Contains("offers") {
		t.Error("Dextlink missing 'offers'")
	}
}

func TestFeatureDistIDsCount(t *testing.T) {
	if len(FeatureDistIDs) != 12 {
		t.Fatalf("FeatureDistIDs = %d entries, want 12 (Table I minus copyright+image)", len(FeatureDistIDs))
	}
	seen := map[DistID]bool{}
	for _, id := range FeatureDistIDs {
		if seen[id] {
			t.Errorf("duplicate DistID %v", id)
		}
		seen[id] = true
		if id == DistCopyright || id == DistImage {
			t.Errorf("feature distributions must exclude %v", id)
		}
	}
}

func TestDistIDString(t *testing.T) {
	want := map[DistID]string{
		DistText: "Dtext", DistTitle: "Dtitle", DistStart: "Dstart",
		DistLand: "Dland", DistIntLog: "Dintlog", DistIntLink: "Dintlink",
		DistStartRDN: "Dstartrdn", DistLandRDN: "Dlandrdn",
		DistIntRDN: "Dintrdn", DistExtRDN: "Dextrdn",
		DistExtLog: "Dextlog", DistExtLink: "Dextlink",
		DistCopyright: "Dcopyright", DistImage: "Dimage",
		DistID(0): "Dunknown",
	}
	for id, name := range want {
		if got := id.String(); got != name {
			t.Errorf("DistID(%d).String() = %q, want %q", id, got, name)
		}
	}
}

func TestFromHTMLResolvesLinks(t *testing.T) {
	html := `<title>T</title><body>
	<a href="/abs">a</a>
	<a href="rel/page">b</a>
	<a href="//other.example.net/x">c</a>
	<a href="https://full.example.org/y">d</a>
	<img src="/img.png">
	</body>`
	s := FromHTML("https://www.site.example.com/dir/start", "https://www.site.example.com/dir/index", nil, html)
	want := []string{
		"https://www.site.example.com/abs",
		"https://www.site.example.com/dir/rel/page",
		"https://other.example.net/x",
		"https://full.example.org/y",
	}
	if !reflect.DeepEqual(s.HREFLinks, want) {
		t.Errorf("HREFLinks =\n%v\nwant\n%v", s.HREFLinks, want)
	}
	if len(s.LoggedLinks) != 1 || s.LoggedLinks[0] != "https://www.site.example.com/img.png" {
		t.Errorf("LoggedLinks = %v", s.LoggedLinks)
	}
	if len(s.RedirectionChain) != 2 {
		t.Errorf("default chain = %v", s.RedirectionChain)
	}
	// Both lists share one array: an append to one must not write into
	// the other.
	if cap(s.HREFLinks) != len(s.HREFLinks) || cap(s.LoggedLinks) != len(s.LoggedLinks) {
		t.Errorf("link lists have spare capacity: %d/%d and %d/%d", len(s.HREFLinks), cap(s.HREFLinks), len(s.LoggedLinks), cap(s.LoggedLinks))
	}
	if s := FromHTML("http://a.example/", "http://a.example/", nil, `<a href="/x">x</a>`); s.LoggedLinks != nil {
		t.Errorf("a page without resources has LoggedLinks %#v, want nil", s.LoggedLinks)
	}
}

// TestFromHTMLAllocs: FromDoc resolves links in the array htmlx.Parse
// built, so a page of absolute links (which resolve to themselves)
// costs its title, its text and one link array — not a second array of
// resolved links.
func TestFromHTMLAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var html strings.Builder
	html.WriteString("<title>Example Bank</title><body><p>Sign in to your account</p>")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&html, `<a href="https://www.examplebank.com/p/%d">p</a><img src="https://cdn.example.net/%d.png">`, i, i)
	}
	html.WriteString(`<iframe src="https://ads.example.org/frame"></iframe></body>`)
	page, chain := html.String(), []string{"https://www.examplebank.com/"}
	s := FromHTML(chain[0], chain[0], chain, page)
	if len(s.HREFLinks) != 16 || len(s.LoggedLinks) != 17 {
		t.Fatalf("FromHTML found %d href and %d logged links, want 16 and 17", len(s.HREFLinks), len(s.LoggedLinks))
	}
	n := testing.AllocsPerRun(100, func() { FromHTML(chain[0], chain[0], chain, page) })
	t.Logf("FromHTML: %.0f allocs/page", n)
	if n > 3 {
		t.Errorf("FromHTML allocated %.0f times per page, want at most 3 (title, text, one link array)", n)
	}
}

// TestBorrowHTMLMatchesFromHTML: a borrowed page is the snapshot
// FromHTML owns, default chain included, and releasing it leaves an
// owned snapshot of the same html untouched.
func TestBorrowHTMLMatchesFromHTML(t *testing.T) {
	pages := []struct{ start, land, html string }{
		{"https://www.site.example.com/dir/start", "https://www.site.example.com/dir/index",
			`<title>T</title><a href="/abs">a</a><a href="rel/page">b</a><a href="//other.example.net/x">c</a><img src="/img.png"><iframe src="f.html"></iframe><p>&copy; 2015 Site Inc.</p>`},
		{"http://a.example/", "http://a.example/", `<body>x <a href="https://b.example/">b</a></body>`},
		{"http://a.example/", "http://a.example/", ""},
	}
	for _, pg := range pages {
		want := FromHTML(pg.start, pg.land, nil, pg.html)
		kept := FromHTML(pg.start, pg.land, nil, pg.html)
		for range 3 {
			got := BorrowHTML(pg.start, pg.land, nil, pg.html)
			if !reflect.DeepEqual(got.Snapshot, want) {
				t.Errorf("BorrowHTML(%q)\n %#v\nwant\n %#v", pg.html, got.Snapshot, want)
			}
			got.Release()
			BorrowHTML("http://scribble.test/", "http://scribble.test/", nil, strings.Repeat("<title>scribble</title><a href=s>s</a>", 64)).Release()
		}
		if !reflect.DeepEqual(kept, want) {
			t.Errorf("an owned snapshot changed when borrowed pages were released:\n %#v\nwant\n %#v", kept, want)
		}
	}
}

// TestBorrowHTMLAllocs: once the pool is warm, a borrowed page of
// absolute links whose redirection chain is given costs no allocation.
// A request that names no chain pays FromDoc's one default-chain array.
func TestBorrowHTMLAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var html strings.Builder
	html.WriteString("<title>Example Bank</title><body><p>Sign in to your account</p>")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&html, `<a href="https://www.examplebank.com/p/%d">p</a><img src="https://cdn.example.net/%d.png">`, i, i)
	}
	html.WriteString(`<iframe src="https://ads.example.org/frame"></iframe><p>&copy; 2015 Example Bank</p></body>`)
	page, start, land := html.String(), "http://bit.example/r", "https://www.examplebank.com/"
	for _, tc := range []struct {
		chain []string
		want  float64
	}{{[]string{start, land}, 0}, {nil, 1}} {
		pg := BorrowHTML(start, land, tc.chain, page)
		if len(pg.HREFLinks) != 16 || len(pg.LoggedLinks) != 17 || pg.Copyright == "" {
			t.Fatalf("BorrowHTML found %d href and %d logged links, copyright %q", len(pg.HREFLinks), len(pg.LoggedLinks), pg.Copyright)
		}
		pg.Release()
		n := testing.AllocsPerRun(100, func() { BorrowHTML(start, land, tc.chain, page).Release() })
		if n != tc.want {
			t.Errorf("chain %q: a borrowed page allocated %.0f times, want %.0f", tc.chain, n, tc.want)
		}
	}
}

func TestFromHTMLSameStartLand(t *testing.T) {
	s := FromHTML("http://a.example/", "http://a.example/", nil, "<body>x</body>")
	if len(s.RedirectionChain) != 1 {
		t.Errorf("chain = %v, want single entry", s.RedirectionChain)
	}
}

func TestResolveRef(t *testing.T) {
	base := "https://www.example.com/a/b"
	tests := []struct{ ref, want string }{
		{"https://x.example/y", "https://x.example/y"},
		{"//h.example/z", "https://h.example/z"},
		{"/root", "https://www.example.com/root"},
		{"leaf", "https://www.example.com/a/leaf"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := ResolveRef(base, tt.ref); got != tt.want {
			t.Errorf("ResolveRef(%q) = %q, want %q", tt.ref, got, tt.want)
		}
	}
}

// referenceResolveRef is ResolveRef as it was before FromDoc parsed
// the base once per page: it parses base for every relative ref.
func referenceResolveRef(base, ref string) string {
	if ref == "" {
		return ref
	}
	if strings.Contains(ref, "://") {
		return ref
	}
	bp, err := urlx.Parse(base)
	if err != nil {
		return ref
	}
	proto := bp.Protocol
	if proto == "" {
		proto = "http"
	}
	switch {
	case strings.HasPrefix(ref, "//"):
		return proto + ":" + ref
	case strings.HasPrefix(ref, "/"):
		return proto + "://" + bp.FQDN + ref
	default:
		dir := bp.Path
		if i := strings.LastIndexByte(dir, '/'); i >= 0 {
			dir = dir[:i+1]
		} else {
			dir = "/"
		}
		return proto + "://" + bp.FQDN + dir + ref
	}
}

// TestFromDocResolvesAsResolveRef: FromDoc parses the landing URL once
// for all of a page's links, and resolves every kind of ref — absolute,
// scheme-relative, root-relative, relative, parent-relative, empty —
// exactly as a parse per link does, against bases with and without a
// scheme, a directory or a query, and against one that does not parse.
func TestFromDocResolvesAsResolveRef(t *testing.T) {
	refs := []string{
		"https://abs.example/x", "//cdn.example.net/lib.js", "/abs/path", "rel", "rel/page.html",
		"../up.html", "../../up2/", "?q=1", "", "mailto:a@b.example", "/", "//",
	}
	bases := []string{
		"https://www.site.example.com/dir/sub/index.html", "https://www.site.example.com/dir/",
		"http://site.example", "www.site.example.com/a/b", "https://site.example/a?b=c/d", "HTTPS://Site.Example/A/b",
		"", "://",
	}
	for _, base := range bases {
		doc := htmlx.Document{HREFLinks: slices.Clone(refs), ResourceLinks: slices.Clone(refs)}
		snap := FromDoc(doc, base, base, nil)
		for i, ref := range refs {
			want := referenceResolveRef(base, ref)
			if got := ResolveRef(base, ref); got != want {
				t.Errorf("ResolveRef(%q, %q) = %q, want %q", base, ref, got, want)
			}
			if snap.HREFLinks[i] != want || snap.LoggedLinks[i] != want {
				t.Errorf("FromDoc against %q resolved %q to %q and %q, want %q", base, ref, snap.HREFLinks[i], snap.LoggedLinks[i], want)
			}
		}
	}
}

func TestIPLiteralLinksClassification(t *testing.T) {
	s := &Snapshot{
		StartingURL:      "http://192.0.2.10/login",
		LandingURL:       "http://192.0.2.10/login",
		RedirectionChain: []string{"http://192.0.2.10/login"},
		LoggedLinks:      []string{"http://192.0.2.10/a.js", "http://203.0.113.5/b.js"},
	}
	a := Analyze(s)
	if len(a.IntLog) != 1 || len(a.ExtLog) != 1 {
		t.Errorf("IP classification: int=%d ext=%d, want 1/1", len(a.IntLog), len(a.ExtLog))
	}
	// IP URLs yield empty RDN distributions (paper §VII-B).
	if !a.Dist(DistLandRDN).Empty() {
		t.Error("Dlandrdn should be empty for IP landing URL")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", back, *s)
	}
}

func TestEmptySnapshot(t *testing.T) {
	a := Analyze(&Snapshot{})
	for _, id := range FeatureDistIDs {
		if !a.Dist(id).Empty() {
			t.Errorf("distribution %v not empty for empty snapshot", id)
		}
	}
	if got := terms.Hellinger(a.Dist(DistText), a.Dist(DistTitle)); got != 0 {
		t.Errorf("H²(empty,empty) = %v, want 0", got)
	}
}
