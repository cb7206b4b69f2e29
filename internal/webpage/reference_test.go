package webpage

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode"

	"knowphish/internal/racecheck"
	"knowphish/internal/terms"
	"knowphish/internal/urlx"
	"knowphish/internal/webgen"
)

// The pre-kernel Analyze, verbatim (but for the format-character rule
// term folding gained after it), with the term layer it was written
// against (one string per term, a counting map and an index map per
// distribution) carried along so the oracle shares nothing with the
// pooled builder it checks: a map of distributions, link lists grown by
// append, one FreeURL string and one []string per link.

type refDistribution struct {
	terms []string
	probs []float64
	index map[string]int
	total int
}

func refExtract(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() >= terms.MinTermLength {
			out = append(out, cur.String())
		}
		cur.Reset()
	}
	for _, r := range s {
		c := terms.Canonicalize(r)
		// A format character (unicode.Cf) is dropped without a split.
		if c < 0 && unicode.Is(unicode.Cf, r) {
			continue
		}
		if c < 0 {
			flush()
			continue
		}
		cur.WriteRune(c)
	}
	flush()
	return out
}

func refNewDistribution(occurrences []string) refDistribution {
	if len(occurrences) == 0 {
		return refDistribution{}
	}
	counts := make(map[string]int, len(occurrences))
	for _, t := range occurrences {
		counts[t]++
	}
	ts := make([]string, 0, len(counts))
	for t := range counts {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	probs := make([]float64, len(ts))
	index := make(map[string]int, len(ts))
	n := float64(len(occurrences))
	for i, t := range ts {
		probs[i] = float64(counts[t]) / n
		index[t] = i
	}
	return refDistribution{terms: ts, probs: probs, index: index, total: len(occurrences)}
}

func refFromText(s string) refDistribution { return refNewDistribution(refExtract(s)) }

func refFromStrings(ss []string) refDistribution {
	var out []string
	for _, s := range ss {
		out = append(out, refExtract(s)...)
	}
	return refNewDistribution(out)
}

type refAnalysis struct {
	Snap                             *Snapshot
	Start, Land                      urlx.Parts
	Chain                            []urlx.Parts
	ControlledRDNs                   map[string]struct{}
	IntLog, ExtLog, IntLink, ExtLink []urlx.Parts

	dists map[DistID]refDistribution
}

func referenceAnalyze(s *Snapshot) *refAnalysis {
	a := &refAnalysis{
		Snap:           s,
		ControlledRDNs: make(map[string]struct{}),
		dists:          make(map[DistID]refDistribution, 14),
	}
	a.Start, _ = urlx.Parse(s.StartingURL)
	a.Land, _ = urlx.Parse(s.LandingURL)
	for _, u := range s.RedirectionChain {
		p, err := urlx.Parse(u)
		if err != nil {
			continue
		}
		a.Chain = append(a.Chain, p)
		if p.RDN != "" {
			a.ControlledRDNs[p.RDN] = struct{}{}
		}
	}
	if a.Start.RDN != "" {
		a.ControlledRDNs[a.Start.RDN] = struct{}{}
	}
	if a.Land.RDN != "" {
		a.ControlledRDNs[a.Land.RDN] = struct{}{}
	}

	for _, u := range s.LoggedLinks {
		p, err := urlx.Parse(u)
		if err != nil {
			continue
		}
		if a.isInternal(p) {
			a.IntLog = append(a.IntLog, p)
		} else {
			a.ExtLog = append(a.ExtLog, p)
		}
	}
	for _, u := range s.HREFLinks {
		p, err := urlx.Parse(u)
		if err != nil {
			continue
		}
		if a.isInternal(p) {
			a.IntLink = append(a.IntLink, p)
		} else {
			a.ExtLink = append(a.ExtLink, p)
		}
	}
	a.buildDistributions()
	return a
}

func (a *refAnalysis) isInternal(p urlx.Parts) bool {
	if p.IsIP {
		return p.FQDN == a.Land.FQDN
	}
	if p.RDN == "" {
		return false
	}
	_, ok := a.ControlledRDNs[p.RDN]
	return ok
}

func (a *refAnalysis) buildDistributions() {
	a.dists[DistText] = refFromText(a.Snap.Text)
	a.dists[DistTitle] = refFromText(a.Snap.Title)
	a.dists[DistCopyright] = refFromText(a.Snap.Copyright)
	a.dists[DistImage] = refFromStrings(a.Snap.ScreenshotTerms)

	a.dists[DistStart] = refFromText(a.Start.FreeURL())
	a.dists[DistLand] = refFromText(a.Land.FreeURL())
	a.dists[DistStartRDN] = refFromText(a.Start.UnicodeRDN())
	a.dists[DistLandRDN] = refFromText(a.Land.UnicodeRDN())

	a.dists[DistIntLog] = refFreeURLDist(a.IntLog)
	a.dists[DistIntLink] = refFreeURLDist(a.IntLink)
	a.dists[DistExtLog] = refFreeURLDist(a.ExtLog)
	a.dists[DistExtLink] = refFreeURLDist(a.ExtLink)

	var intRDNs []string
	for _, p := range a.IntLog {
		intRDNs = append(intRDNs, refExtract(p.RDN)...)
	}
	for _, p := range a.IntLink {
		intRDNs = append(intRDNs, refExtract(p.RDN)...)
	}
	a.dists[DistIntRDN] = refNewDistribution(intRDNs)

	var extRDNs []string
	for _, p := range a.ExtLog {
		extRDNs = append(extRDNs, refExtract(p.RDN)...)
	}
	a.dists[DistExtRDN] = refNewDistribution(extRDNs)
}

func refFreeURLDist(ps []urlx.Parts) refDistribution {
	var occ []string
	for _, p := range ps {
		occ = append(occ, refExtract(p.FreeURL())...)
	}
	return refNewDistribution(occ)
}

// checkAnalysis compares Analyze(s) with the reference on everything an
// Analysis exposes (see checkAnalyzed).
func checkAnalysis(t testing.TB, s *Snapshot) {
	t.Helper()
	checkAnalyzed(t, Analyze(s), s)
}

// checkAnalyzed compares got, an analysis of s, with the reference on
// everything an Analysis exposes: URL parts and link lists by
// reflect.DeepEqual (so a nil list stays nil), and for all fourteen
// distributions the terms, the probabilities bit for bit, the totals
// and the three lookups.
func checkAnalyzed(t testing.TB, got *Analysis, s *Snapshot) {
	t.Helper()
	want := referenceAnalyze(s)
	if got.Snap != s {
		t.Fatal("Snap is not the analyzed snapshot")
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Start", got.Start, want.Start}, {"Land", got.Land, want.Land},
		{"Chain", got.Chain, want.Chain}, {"ControlledRDNs", got.ControlledRDNs, want.ControlledRDNs},
		{"IntLog", got.IntLog, want.IntLog}, {"ExtLog", got.ExtLog, want.ExtLog},
		{"IntLink", got.IntLink, want.IntLink}, {"ExtLink", got.ExtLink, want.ExtLink},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s differs from the reference\n got %#v\nwant %#v\nsnapshot %+v", f.name, f.got, f.want, *s)
		}
	}
	// Appending to one class must not write into its neighbour's half of
	// the shared backing array.
	for _, l := range [][]urlx.Parts{got.IntLog, got.ExtLog, got.IntLink, got.ExtLink} {
		if len(l) != cap(l) {
			t.Fatalf("link list has spare capacity %d > %d", cap(l), len(l))
		}
	}
	for id := DistText; id <= DistImage; id++ {
		g, w := got.Dist(id), want.dists[id]
		if g.TotalOccurrences() != w.total || g.Len() != len(w.terms) || g.Empty() != (len(w.terms) == 0) {
			t.Fatalf("%v: %d terms / %d occurrences, reference %d / %d\nsnapshot %+v", id, g.Len(), g.TotalOccurrences(), len(w.terms), w.total, *s)
		}
		if len(w.terms) == 0 {
			if g.Terms() != nil {
				t.Fatalf("%v: empty distribution has terms %q", id, g.Terms())
			}
		} else if !reflect.DeepEqual(g.Terms(), w.terms) {
			t.Fatalf("%v: Terms = %q\nwant %q", id, g.Terms(), w.terms)
		}
		for i, term := range w.terms {
			if math.Float64bits(g.Probs()[i]) != math.Float64bits(w.probs[i]) || math.Float64bits(g.P(term)) != math.Float64bits(w.probs[i]) {
				t.Fatalf("%v: P(%q) = %v / %v, want %v", id, term, g.Probs()[i], g.P(term), w.probs[i])
			}
			if !g.Contains(term) || !g.ContainsBytes([]byte(term)) {
				t.Fatalf("%v: present term %q not found", id, term)
			}
			for _, absent := range []string{term[:len(term)-1], term + "a"} {
				_, present := w.index[absent]
				if g.Contains(absent) != present || g.ContainsBytes([]byte(absent)) != present || (g.P(absent) != 0) != present {
					t.Fatalf("%v: lookup of %q disagrees with the reference (present=%v)", id, absent, present)
				}
			}
		}
	}
	if got.Dist(0).Len() != 0 || got.Dist(DistImage+1).Len() != 0 || got.Dist(-1).Len() != 0 {
		t.Fatal("an unknown DistID must read as the empty distribution")
	}
	// The ranked distributions are the same distributions over one
	// dictionary: every pair's distance, by rank, is the distance by
	// term, bit for bit.
	for p := DistText - 1; p <= DistImage+1; p++ {
		for q := DistText - 1; q <= DistImage+1; q++ {
			h, hr := terms.Hellinger(got.Dist(p), got.Dist(q)), terms.HellingerRanked(got.Ranked(p), got.Ranked(q))
			if math.Float64bits(h) != math.Float64bits(hr) || len(got.Ranked(p).Ranks()) != got.Dist(p).Len() {
				t.Fatalf("H(%v,%v) = %v by rank, %v by term", p, q, hr, h)
			}
		}
	}
}

// visit is the crawl a browser would make of site, without the iframe
// folding internal/crawl adds (crawl imports this package).
func visit(w *webgen.World, site *webgen.Site) *Snapshot {
	chain := []string{site.StartURL}
	cur := site.StartURL
	for hop := 0; hop < 10; hop++ {
		p, ok := site.Fetch(cur)
		if !ok {
			p, ok = w.Fetch(cur)
		}
		if !ok {
			return nil
		}
		if p.RedirectTo == "" {
			s := FromHTML(site.StartURL, cur, chain, p.HTML)
			s.ScreenshotTerms = p.ScreenshotText
			return &s
		}
		cur = p.RedirectTo
		chain = append(chain, cur)
	}
	return nil
}

// referenceSnapshots returns n generated pages — phishing pages of
// every hosting kind (IP literals and IDN homographs among them) and
// legitimate pages of every kind, cycling through the six languages —
// followed by the hand-written edge cases.
func referenceSnapshots(n int) []*Snapshot {
	w := webgen.New(webgen.Config{Seed: 17, Brands: 30, RankedGenerics: 30, VocabularyWords: 60})
	rng := rand.New(rand.NewSource(17))
	var out []*Snapshot
	for i := 0; len(out) < n; i++ {
		lang := webgen.Languages[i%len(webgen.Languages)]
		var site *webgen.Site
		switch i % 4 {
		case 0:
			opts := w.RandomPhishOptions(rng)
			opts.Lang = lang
			site = w.NewPhishSite(rng, opts)
		case 1:
			site = w.NewPhishSite(rng, webgen.PhishOptions{
				Lang:         lang,
				Hosting:      webgen.HostingKind(1 + i/4%4),
				UseShortener: i%8 == 1,
				ImageOnly:    i%24 == 1,
			})
		case 2:
			site = w.NewLegitSite(rng, webgen.LegitOptions{Lang: lang})
		default:
			site = w.NewLegitSite(rng, webgen.LegitOptions{
				Lang: lang, BrandVisit: i%16 == 3, NewsStyle: i%16 == 7, LoginPage: i%16 == 11, MerchantCheckout: i%16 == 15,
			})
		}
		if s := visit(w, site); s != nil {
			out = append(out, s)
		}
	}
	return append(out, edgeSnapshots()...)
}

func edgeSnapshots() []*Snapshot {
	return []*Snapshot{
		{},
		{StartingURL: " ", LandingURL: "\t", RedirectionChain: []string{"", " "}, LoggedLinks: []string{""}, HREFLinks: []string{" "}},
		{
			// IP-literal landing: IP links are internal only on the same host,
			// and an IP URL without path or query contributes no FreeURL terms.
			StartingURL: "http://192.0.2.7/", LandingURL: "http://192.0.2.7/secure/login.php?session=abcdef",
			RedirectionChain: []string{"http://192.0.2.7/", "http://192.0.2.7/secure/login.php?session=abcdef"},
			LoggedLinks:      []string{"http://192.0.2.7/img/logo.png", "http://198.51.100.9/track.js", "http://192.0.2.7", "https://static.bank.example/app.js"},
			HREFLinks:        []string{"http://[2001:db8::1]:8080/path/here", "http://192.0.2.7/again?verify=account"},
			Text:             "Verify your account", Title: "Sign in",
		},
		{
			// IDN homograph hosts: RDN distributions decode punycode first.
			StartingURL: "http://xn--pypal-4ve.com/login", LandingURL: "http://secure.xn--pypal-4ve.com/webscr/update?cmd=login",
			RedirectionChain: []string{"http://xn--pypal-4ve.com/login", "http://secure.xn--pypal-4ve.com/webscr/update?cmd=login"},
			LoggedLinks:      []string{"http://www.xn--pypal-4ve.com/style.css", "https://www.paypal.com/logo.png", "http://xn--80ak6aa92e.com/x"},
			HREFLinks:        []string{"https://www.paypal.com/help", "http://pаypal.com/кириллица/path"},
			Text:             "PаyPal — Crédit Agricole ßströng", Title: "Pay\xffPal \xc3", Copyright: "© 2016 PayPal Inc.",
			ScreenshotTerms: []string{"paypal login", "", "secure paypal"},
		},
		{
			// Every link external; every link internal.
			StartingURL: "http://one.example/", LandingURL: "http://one.example/",
			LoggedLinks: []string{"http://two.example/a", "http://three.example/b"},
			HREFLinks:   []string{"http://one.example/c", "http://www.one.example/d"},
		},
		{
			// Public-suffix-only and dotted hosts, userinfo, fragments; the
			// chain omits the landing URL.
			StartingURL: "http://co.uk/", LandingURL: "http://user@evil.example:8080/a.b.c?d.e#frag",
			RedirectionChain: []string{"http://co.uk/", "http://hop.example.."},
			LoggedLinks:      []string{"co.uk", "//cdn.example/x", "http://evil.example", "javascript:void(0)"},
			HREFLinks:        []string{"mailto:someone@example.com", "http://EVIL.example/UPPER/Case?Query=Value"},
		},
	}
}

func TestAnalyzeMatchesReference(t *testing.T) {
	for _, s := range referenceSnapshots(400) {
		checkAnalysis(t, s)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 150; i++ {
		checkAnalysis(t, randomSnapshot(rng))
	}
}

// The builder and the analyses are pooled and reached from concurrent
// handlers and feed workers: analyses made side by side, released or
// kept, must equal the ones made alone (run under -race in CI).
func TestAnalyzeConcurrent(t *testing.T) {
	snaps := referenceSnapshots(60)
	alone := make([]*Analysis, len(snaps))
	for i, s := range snaps {
		alone[i] = Analyze(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, s := range snaps {
					got := Analyze(s)
					if !reflect.DeepEqual(exposed(got), exposed(alone[i])) {
						t.Errorf("snapshot %d analyzed concurrently differs from the same snapshot analyzed alone", i)
						return
					}
					if (g+i)%2 == 0 {
						got.Release()
					}
				}
			}
		}()
	}
	wg.Wait()
}

// exposed is what an Analysis shows its readers, without the arrays it
// keeps for reuse.
func exposed(a *Analysis) Analysis {
	return Analysis{
		Snap: a.Snap, Start: a.Start, Land: a.Land, Chain: a.Chain, ControlledRDNs: a.ControlledRDNs,
		IntLog: a.IntLog, ExtLog: a.ExtLog, IntLink: a.IntLink, ExtLink: a.ExtLink, dists: a.dists, ranked: a.ranked,
	}
}

// analyzeAllocBudget bounds one Analyze of the English test snapshot
// that is never released: the Analysis, the controlled-RDN map and its
// first group, one array for the chain and the link lists, and four
// allocations for the fourteen distributions together (the dictionary's
// bytes, terms, ranks, and probabilities with their roots); urlx.Parse
// allocates only for a host that is not already lower-case. 8 measured
// (7 with three arrays and no ranks, 9 with an array per link list and
// a fresh Analysis; 86 while urlx split and joined labels; the
// map-per-distribution kernel took 607).
const analyzeAllocBudget = 11

// allocTestPage is the English legitimate page the allocation tests
// analyse.
func allocTestPage(t *testing.T) *Snapshot {
	t.Helper()
	w := webgen.New(webgen.Config{Seed: 5, Brands: 60, RankedGenerics: 80, VocabularyWords: 100})
	s := visit(w, w.NewLegitSite(rand.New(rand.NewSource(5)), webgen.LegitOptions{Lang: webgen.English}))
	if s == nil || len(s.HREFLinks) == 0 || len(s.LoggedLinks) == 0 || s.Text == "" {
		t.Fatalf("test page is degenerate: %+v", s)
	}
	return s
}

func TestAnalyzeAllocBudget(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := allocTestPage(t)
	n := testing.AllocsPerRun(50, func() { Analyze(s) })
	t.Logf("Analyze: %.0f allocs/page (budget %d)", n, analyzeAllocBudget)
	if n > analyzeAllocBudget {
		t.Errorf("Analyze allocated %.0f times per page, budget %d", n, analyzeAllocBudget)
	}
}

// TestAnalyzeReleasedAllocs: an owner that releases every analysis
// reaches a steady state in which Analyze refills pooled arrays and its
// pooled dictionary, and allocates nothing.
func TestAnalyzeReleasedAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := allocTestPage(t)
	Analyze(s).Release()
	n := testing.AllocsPerRun(100, func() { Analyze(s).Release() })
	t.Logf("Analyze + Release: %.0f allocs/page", n)
	if n != 0 {
		t.Errorf("Analyze + Release allocated %.0f times per page, want 0", n)
	}
}

// TestAnalyzeReusedMatchesReference analyses every reference page on
// one analysis, reset between pages, in two orders: nothing of one page
// may show in the next, whatever their sizes.
func TestAnalyzeReusedMatchesReference(t *testing.T) {
	snaps := referenceSnapshots(200)
	backward := slices.Clone(snaps)
	slices.Reverse(backward)
	a := new(Analysis)
	for _, order := range [][]*Snapshot{snaps, backward} {
		for _, s := range order {
			a.reset()
			a.fill(s)
			checkAnalyzed(t, a, s)
		}
	}
}

// distinctWords returns n distinct lower-case words of at least three
// letters.
func distinctWords(n int) []string {
	words := make([]string, n)
	for i := range words {
		word := []byte("zz")
		for v := i; ; v /= 26 {
			word = append(word, byte('a'+v%26))
			if v < 26 {
				break
			}
		}
		words[i] = string(word)
	}
	return words
}

// TestAnalysisHostilePages: pages that grow one pooled array each past
// its bound — 100 000 links, 100 000 distinct terms, a chain through
// 200 registered domains — analyse to the reference, and what they grew
// is not kept in the pool.
func TestAnalysisHostilePages(t *testing.T) {
	const n = 100000
	words := distinctWords(n)
	links := make([]string, n)
	for i := range links {
		links[i] = "http://other.example/login"
	}
	chain := distinctWords(200)
	for i, w := range chain {
		chain[i] = "http://" + w + ".example/"
	}
	land := "http://bank.example/"
	for _, s := range []*Snapshot{
		{StartingURL: land, LandingURL: land, HREFLinks: links},
		{StartingURL: land, LandingURL: land, Text: strings.Join(words, " ")},
		{StartingURL: chain[0], LandingURL: land, RedirectionChain: append(chain, land)},
	} {
		a := Analyze(s)
		checkAnalyzed(t, a, s)
		if termCap, byteCap := a.dict.Cap(); cap(a.parts) <= maxPooledParts && termCap <= maxPooledTerms && byteCap <= maxPooledDictBytes && len(a.ControlledRDNs) <= maxPooledRDNs {
			t.Fatalf("a hostile page grew %d parts, %d terms, %d dictionary bytes and %d RDNs, not past the pooling bounds", cap(a.parts), termCap, byteCap, len(a.ControlledRDNs))
		}
		a.Release()
		held := make([]*Analysis, 8)
		for i := range held {
			held[i] = analysisPool.Get().(*Analysis)
			h := held[i]
			if termCap, byteCap := h.dict.Cap(); h == a || cap(h.parts) > maxPooledParts || termCap > maxPooledTerms || byteCap > maxPooledDictBytes || len(h.ControlledRDNs) != 0 {
				t.Errorf("the pool kept the hostile page's analysis, or one of %d parts, %d terms, %d dictionary bytes and %d RDNs", cap(h.parts), termCap, byteCap, len(h.ControlledRDNs))
			}
		}
		for _, h := range held {
			analysisPool.Put(h)
		}
	}
}

// FuzzAnalyzeMatchesReference drives arbitrary HTML and URLs through
// FromHTML, the way a scoring request arrives, and a carved snapshot
// through Analyze directly (lists and fields FromHTML never produces).
func FuzzAnalyzeMatchesReference(f *testing.F) {
	f.Add("http://bit.example/r", "https://www.bank.example/login", `<title>Bank</title><a href="/help">help</a><img src="//cdn.other.example/x.png"><p>&copy; 2016 Bank</p>`, []byte{})
	f.Add("", "http://192.0.2.7/a?b=c", `<a href="http://192.0.2.7/x"><a href='http://198.51.100.1/y'><form action=z>`, []byte("\x05http:\x03a.b"))
	f.Add("http://xn--pypal-4ve.com/", "http://xn--pypal-4ve.com/", "<iframe src=http://pаypal.com/>Crédit", []byte("\x01u"))
	f.Add("\xff", " ", "<a href=' '><a href=#x><link href='?q'>", []byte("\x00\x00\x02\x03a b\x02//"))
	f.Fuzz(func(t *testing.T, start, land, html string, carved []byte) {
		s := FromHTML(start, land, nil, html)
		c := fuzzSnap(carved)
		checkAnalysis(t, &s)
		checkAnalysis(t, c)
		// Again on an analysis released by the other page.
		a := Analyze(c)
		for _, snap := range []*Snapshot{&s, c} {
			a.reset()
			a.fill(snap)
			checkAnalyzed(t, a, snap)
		}
	})
}
