package features

import (
	"math"
	"math/rand"
	"testing"

	"knowphish/internal/crawl"
	"knowphish/internal/ranking"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

func TestCountsMatchPaper(t *testing.T) {
	// Table III: 106 + 66 + 22 + 13 + 5 = 212.
	if TotalCount != 212 {
		t.Fatalf("TotalCount = %d, want 212", TotalCount)
	}
	if CountF1 != 106 || CountF2 != 66 || CountF3 != 22 || CountF4 != 13 || CountF5 != 5 {
		t.Fatalf("set sizes = %d/%d/%d/%d/%d", CountF1, CountF2, CountF3, CountF4, CountF5)
	}
	if got := len(Names()); got != 212 {
		t.Fatalf("Names() = %d entries, want 212", got)
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestIndicesPartition(t *testing.T) {
	sizes := map[Set]int{F1: 106, F2: 66, F3: 22, F4: 13, F5: 5, F15: 111, F234: 101, All: 212}
	for s, want := range sizes {
		if got := len(Indices(s)); got != want {
			t.Errorf("Indices(%s) = %d, want %d", s, got, want)
		}
	}
	// Groups partition the columns.
	covered := map[int]bool{}
	for _, s := range []Set{F1, F2, F3, F4, F5} {
		for _, i := range Indices(s) {
			if covered[i] {
				t.Errorf("column %d in two groups", i)
			}
			covered[i] = true
		}
	}
	if len(covered) != 212 {
		t.Errorf("groups cover %d columns", len(covered))
	}
}

func TestSetString(t *testing.T) {
	tests := map[Set]string{
		F1: "f1", F2: "f2", F3: "f3", F4: "f4", F5: "f5",
		F15: "f1,5", F234: "f2,3,4", All: "fall", Set(0): "f none",
	}
	for s, want := range tests {
		if got := s.String(); got != want {
			t.Errorf("Set(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func sampleSnapshot() *webpage.Snapshot {
	return &webpage.Snapshot{
		StartingURL:      "http://tinyto.example/abc",
		LandingURL:       "https://www.examplebank.com/login",
		RedirectionChain: []string{"http://tinyto.example/abc", "https://www.examplebank.com/login"},
		LoggedLinks: []string{
			"https://static.examplebank.com/app.js",
			"https://cdn.thirdparty.net/lib.js",
		},
		Title:      "ExampleBank Login",
		Text:       "Welcome to examplebank please sign in securely",
		HREFLinks:  []string{"https://www.examplebank.com/help", "https://partner.example.org/x"},
		InputCount: 2, ImageCount: 3, IFrameCount: 1,
	}
}

func TestExtractVectorShape(t *testing.T) {
	e := &Extractor{}
	v := e.ExtractSnapshot(sampleSnapshot())
	if len(v) != TotalCount {
		t.Fatalf("vector length = %d, want %d", len(v), TotalCount)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("feature %d (%s) = %v", i, Names()[i], x)
		}
	}
}

func TestExtractKnownValues(t *testing.T) {
	e := &Extractor{Rank: ranking.New([]string{"examplebank.com"})}
	snap := sampleSnapshot()
	v := e.ExtractSnapshot(snap)
	names := Names()
	get := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return v[i]
			}
		}
		t.Fatalf("no feature named %q", name)
		return 0
	}
	if got := get("f1.start.https"); got != 0 {
		t.Errorf("start https = %v, want 0", got)
	}
	if got := get("f1.land.https"); got != 1 {
		t.Errorf("land https = %v, want 1", got)
	}
	if got := get("f1.land.level_domains"); got != 3 {
		t.Errorf("land level_domains = %v, want 3", got)
	}
	if got := get("f1.land.mld_len"); got != float64(len("examplebank")) {
		t.Errorf("land mld_len = %v", got)
	}
	if got := get("f1.land.alexa_rank"); got != 1 {
		t.Errorf("land alexa_rank = %v, want 1", got)
	}
	if got := get("f1.start.alexa_rank"); got != ranking.UnrankedValue {
		t.Errorf("start alexa_rank = %v, want unranked", got)
	}
	// f3: landing mld "examplebank" appears in Dtext (term present).
	if got := get("f3.mld_in.land.Dtext"); got != 1 {
		t.Errorf("mld_in.land.Dtext = %v, want 1", got)
	}
	if got := get("f3.mld_in.start.Dtext"); got != 0 {
		t.Errorf("mld_in.start.Dtext = %v, want 0 (start mld 'tinyto' absent)", got)
	}
	// f4: chain length 2, both RDNs distinct, start != land.
	if got := get("f4.chain_len"); got != 2 {
		t.Errorf("chain_len = %v", got)
	}
	if got := get("f4.chain_rdns"); got != 2 {
		t.Errorf("chain_rdns = %v", got)
	}
	if got := get("f4.start_land_same_rdn"); got != 0 {
		t.Errorf("start_land_same_rdn = %v", got)
	}
	// f5 counts.
	if got := get("f5.inputs"); got != 2 {
		t.Errorf("inputs = %v", got)
	}
	if got := get("f5.images"); got != 3 {
		t.Errorf("images = %v", got)
	}
	if got := get("f5.iframes"); got != 1 {
		t.Errorf("iframes = %v", got)
	}
	if got := get("f5.title_terms"); got != 2 { // "examplebank", "login"
		t.Errorf("title_terms = %v", got)
	}
}

func TestF2Bounds(t *testing.T) {
	e := &Extractor{}
	v := e.ExtractSnapshot(sampleSnapshot())
	for _, i := range Indices(F2) {
		if v[i] < 0 || v[i] > 1 {
			t.Errorf("Hellinger feature %s = %v outside [0,1]", Names()[i], v[i])
		}
	}
}

func TestEmptySnapshotAllZerosOrDefaults(t *testing.T) {
	e := &Extractor{}
	v := e.ExtractSnapshot(&webpage.Snapshot{})
	if len(v) != TotalCount {
		t.Fatalf("vector length = %d", len(v))
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("feature %d (%s) = %v on empty snapshot", i, Names()[i], x)
		}
	}
}

func TestIPURLSnapshot(t *testing.T) {
	// Section VII-B: IP-based URLs yield empty FQDN distributions and
	// unranked domains; extraction must stay well-defined.
	e := &Extractor{}
	snap := &webpage.Snapshot{
		StartingURL:      "http://192.0.2.7/novabank/login.php",
		LandingURL:       "http://192.0.2.7/novabank/login.php",
		RedirectionChain: []string{"http://192.0.2.7/novabank/login.php"},
		Title:            "NovaBank Login",
		Text:             "novabank secure login",
		InputCount:       2,
	}
	v := e.ExtractSnapshot(snap)
	names := Names()
	for i, x := range v {
		if math.IsNaN(x) {
			t.Errorf("NaN at %s", names[i])
		}
	}
	get := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return v[i]
			}
		}
		return math.NaN()
	}
	if got := get("f1.land.alexa_rank"); got != ranking.UnrankedValue {
		t.Errorf("IP landing rank = %v, want unranked default", got)
	}
	if got := get("f1.land.level_domains"); got != 0 {
		t.Errorf("IP level_domains = %v, want 0", got)
	}
	if got := get("f3.mld_in.land.Dtext"); got != 0 {
		t.Errorf("IP mld_in = %v, want 0 (no mld)", got)
	}
}

func TestProject(t *testing.T) {
	x := [][]float64{{1, 2, 3}, {4, 5, 6}}
	got := Project(x, []int{2, 0})
	if got[0][0] != 3 || got[0][1] != 1 || got[1][0] != 6 || got[1][1] != 4 {
		t.Errorf("Project = %v", got)
	}
	// Original untouched.
	if x[0][0] != 1 {
		t.Error("Project mutated input")
	}
}

func TestMeanMedianStd(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	m, med, sd := meanMedianStd([]float64{1, 2, 3, 4}, sc)
	if m != 2.5 || med != 2.5 {
		t.Errorf("mean/median = %v/%v", m, med)
	}
	if math.Abs(sd-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("std = %v", sd)
	}
	m, med, sd = meanMedianStd([]float64{5}, sc)
	if m != 5 || med != 5 || sd != 0 {
		t.Errorf("singleton = %v/%v/%v", m, med, sd)
	}
	m, med, sd = meanMedianStd(nil, sc)
	if m != 0 || med != 0 || sd != 0 {
		t.Errorf("empty = %v/%v/%v", m, med, sd)
	}
}

func TestMLDTerm(t *testing.T) {
	tests := map[string]string{
		"novabank":        "novabank",
		"secure-login-77": "securelogin",
		"nova1bank":       "novabank",
		"":                "",
	}
	for in, want := range tests {
		if got := mldTerm(in); got != want {
			t.Errorf("mldTerm(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSignalDirection verifies the core conjecture end-to-end on the
// synthetic world: phishing pages must differ from legitimate pages in the
// directions the paper argues (higher Hellinger inconsistency between
// constrained and controlled sources, lower mld usage, higher external
// concentration).
func TestSignalDirection(t *testing.T) {
	w := webgen.New(webgen.Config{Seed: 5, Brands: 60, RankedGenerics: 80, VocabularyWords: 100})
	e := &Extractor{Rank: w.Ranking()}
	rng := rand.New(rand.NewSource(6))
	names := Names()
	col := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("no feature %q", name)
		return -1
	}
	avg := func(vectors [][]float64, c int) float64 {
		var s float64
		for _, v := range vectors {
			s += v[c]
		}
		return s / float64(len(vectors))
	}

	var legit, phish [][]float64
	for i := 0; i < 120; i++ {
		ls := w.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		snap, err := crawl.VisitSite(w, ls)
		if err != nil {
			t.Fatalf("legit visit: %v", err)
		}
		legit = append(legit, e.ExtractSnapshot(snap))

		ps := w.NewPhishSite(rng, w.RandomPhishOptions(rng))
		snap, err = crawl.VisitSite(w, ps)
		if err != nil {
			t.Fatalf("phish visit: %v", err)
		}
		phish = append(phish, e.ExtractSnapshot(snap))
	}

	type direction struct {
		name        string
		phishHigher bool
	}
	for _, d := range []direction{
		{"f3.mld_in.land.Dtext", false},       // legit mention their own mld
		{"f4.ext_concentration", true},        // phish links concentrate on target
		{"f2.hellinger.Dtext_Dlandrdn", true}, // phish text inconsistent with landing RDN
		{"f1.land.alexa_rank", true},          // phish domains unranked
		{"f5.inputs", true},                   // credential forms
		{"f5.text_terms", false},              // phish keep text minimal
	} {
		lv, pv := avg(legit, col(d.name)), avg(phish, col(d.name))
		if d.phishHigher && pv <= lv {
			t.Errorf("%s: phish avg %v <= legit avg %v, want higher", d.name, pv, lv)
		}
		if !d.phishHigher && pv >= lv {
			t.Errorf("%s: phish avg %v >= legit avg %v, want lower", d.name, pv, lv)
		}
	}
}

// TestExtractFinite: the trainers reject a non-finite feature value, so
// the extractor must never emit one — over every kind of page the
// synthetic web generates and over the degenerate snapshots a hostile or
// broken page reduces to. A failure here is a bug in the feature, not a
// reason to relax the trainers' check.
func TestExtractFinite(t *testing.T) {
	w := webgen.New(webgen.Config{Seed: 7, Brands: 60, RankedGenerics: 80, VocabularyWords: 100})
	e := &Extractor{Rank: w.Ranking()}
	names := Names()
	check := func(label string, snap *webpage.Snapshot) {
		t.Helper()
		for _, ext := range []*Extractor{e, {}} { // with and without a ranking
			for i, x := range ext.ExtractSnapshot(snap) {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Errorf("%s: feature %d (%s) = %v", label, i, names[i], x)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 150; i++ {
		lang := webgen.Languages[i%len(webgen.Languages)]
		for _, site := range []*webgen.Site{
			w.NewLegitSite(rng, webgen.LegitOptions{Lang: lang, NewsStyle: i%7 == 0}),
			w.NewPhishSite(rng, w.RandomPhishOptions(rng)),
			w.NewClonePhishSite(rng),
			w.NewParkedSite(rng),
			w.NewUnavailableSite(rng),
		} {
			snap, err := crawl.VisitSite(w, site)
			if err != nil {
				t.Fatalf("visiting %s site: %v", site.Kind, err)
			}
			check(site.Kind.String()+" "+snap.LandingURL, snap)
		}
	}

	const u = "http://example.test/"
	page := func(url, html string) *webpage.Snapshot {
		snap := webpage.FromHTML(url, url, nil, html)
		return &snap
	}
	for label, snap := range map[string]*webpage.Snapshot{
		"zero snapshot":       {},
		"empty HTML":          page(u, ""),
		"no links":            page(u, "<title>t</title><body>only some text here</body>"),
		"links only":          page(u, `<a href="/a"></a><a href="http://other.test/"></a><img src="x.png">`),
		"empty URLs":          page("", `<title>t</title><body>text <a href="">x</a><a href="#">y</a></body>`),
		"unparseable URLs":    {StartingURL: "::", LandingURL: "http://", RedirectionChain: []string{"", "%%"}, HREFLinks: []string{"", "://", "http://"}, LoggedLinks: []string{" "}},
		"IP landing":          page("http://192.0.2.7/a", "<body>login</body>"),
		"one-character terms": page(u, "<title>a b</title><body>a b c d © e</body>"),
		"counts without text": {StartingURL: u, LandingURL: u, InputCount: 1 << 30, ImageCount: 1 << 30, IFrameCount: 1 << 30},
	} {
		check(label, snap)
	}
}
