package target

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"knowphish/internal/crawl"
	"knowphish/internal/ocr"
	"knowphish/internal/racecheck"
	"knowphish/internal/search"
	"knowphish/internal/terms"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// The reference below is Identify as it stood before the single term
// table: two statistics maps, a copied page-term set, full sorts for the
// keyterms and a cloned set for the OCR step. It is kept verbatim (names
// prefixed ref) as the differential oracle for TestIdentifyMatchesReference;
// containsOwn is shared, it did not change.

// keytermsFromStats ranks already-accumulated term statistics, so
// Identify can reuse one termStats pass for both keyterm extraction and
// candidate evidence.
func refKeytermsFromStats(score map[string]float64, sources map[string]int, n int) Keyterms {
	if n <= 0 {
		n = DefaultKeyterms
	}
	type scored struct {
		term    string
		score   float64
		sources int
	}
	all := make([]scored, 0, len(score))
	for t, s := range score {
		all = append(all, scored{term: t, score: s, sources: sources[t]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].term < all[j].term
	})
	var kt Keyterms
	for _, s := range all {
		if len(kt.Prominent) == n {
			break
		}
		kt.Prominent = append(kt.Prominent, s.term)
	}
	// Boosted: multi-source terms, ranked by source count first — a term
	// the owner repeats across title, text, copyright and URL is the
	// page's subject.
	boosted := make([]scored, 0, len(all))
	for _, s := range all {
		if s.sources >= 2 {
			boosted = append(boosted, s)
		}
	}
	sort.Slice(boosted, func(i, j int) bool {
		if boosted[i].sources != boosted[j].sources {
			return boosted[i].sources > boosted[j].sources
		}
		if boosted[i].score != boosted[j].score {
			return boosted[i].score > boosted[j].score
		}
		return boosted[i].term < boosted[j].term
	})
	for _, s := range boosted {
		if len(kt.Boosted) == n {
			break
		}
		kt.Boosted = append(kt.Boosted, s.term)
	}
	return kt
}

// termStats accumulates, per term, the summed probability across the
// keyterm sources and the number of sources containing it. Sources are
// visited in fixed order and terms in sorted order, so the float
// accumulation is bit-reproducible.
func refTermStats(a *webpage.Analysis) (score map[string]float64, sources map[string]int) {
	score = make(map[string]float64)
	sources = make(map[string]int)
	for _, id := range keytermSources {
		d := a.Dist(id)
		for _, t := range d.Terms() {
			score[t] += d.P(t)
			sources[t]++
		}
	}
	return score, sources
}

// Identify runs the full process on an analyzed page.
func referenceIdentify(id *Identifier, a *webpage.Analysis) Result {
	k := id.K
	if k <= 0 {
		k = DefaultKeyterms
	}
	nres := id.Results
	if nres <= 0 {
		nres = DefaultResults
	}
	score, sources := refTermStats(a)
	res := Result{Keyterms: refKeytermsFromStats(score, sources, k)}

	// The page's full term set is the evidence pool for candidate
	// filtering; external RDNs are strong evidence (the phish links to
	// its target's real site).
	pageTerms := make(map[string]struct{}, len(score))
	for t := range score {
		pageTerms[t] = struct{}{}
	}
	extRDNs := refExternalRDNs(a)

	// Step 1: boosted prominent terms.
	q1 := res.Keyterms.Boosted
	if len(q1) == 0 {
		q1 = res.Keyterms.Prominent
	}
	r1 := id.Engine.Query(q1, nres)
	if containsOwn(r1, a) {
		res.Verdict, res.StepsUsed = VerdictLegitimate, 1
		return res
	}

	// Step 2: prominent terms plus the landing mld terms, the paper's
	// second, more site-specific query.
	q2 := refAppendUnique(res.Keyterms.Prominent, terms.Extract(a.Land.UnicodeRDN()))
	r2 := id.Engine.Query(q2, nres)
	if containsOwn(r2, a) {
		res.Verdict, res.StepsUsed = VerdictLegitimate, 2
		return res
	}

	// Step 3: rank the returned domains as candidate targets.
	res.Candidates = refRankCandidates([][]search.Result{r1, r2}, pageTerms, extRDNs, a)
	if len(res.Candidates) > 0 {
		res.Verdict, res.StepsUsed = VerdictPhish, 3
		return res
	}
	res.StepsUsed = 3

	// Step 4: OCR fallback over the screenshot layer, for pages whose
	// HTML carries no usable terms (image-only phish kits).
	if len(a.Snap.ScreenshotTerms) > 0 {
		rec := id.OCR
		if rec == nil {
			rec = &ocr.Recognizer{}
		}
		dist := terms.FromStrings(rec.Recognize(a.Snap.ScreenshotTerms))
		res.UsedOCR = true
		res.OCRProminent = dist.TopN(k)
		res.StepsUsed = 4
		if len(res.OCRProminent) > 0 {
			r3 := id.Engine.Query(res.OCRProminent, nres)
			if containsOwn(r3, a) {
				res.Verdict = VerdictLegitimate
				return res
			}
			ocrTerms := make(map[string]struct{}, len(pageTerms)+dist.Len())
			for t := range pageTerms {
				ocrTerms[t] = struct{}{}
			}
			for _, t := range dist.Terms() {
				ocrTerms[t] = struct{}{}
			}
			res.Candidates = refRankCandidates([][]search.Result{r1, r2, r3}, ocrTerms, extRDNs, a)
			if len(res.Candidates) > 0 {
				res.Verdict = VerdictPhish
				return res
			}
		}
	}

	res.Verdict = VerdictSuspicious
	return res
}

// externalRDNs collects the RDNs of links leaving the controlled domain
// set — where a phish points at its target's real site.
func refExternalRDNs(a *webpage.Analysis) map[string]struct{} {
	out := make(map[string]struct{})
	for _, p := range a.ExtLog {
		if p.RDN != "" {
			out[p.RDN] = struct{}{}
		}
	}
	for _, p := range a.ExtLink {
		if p.RDN != "" {
			out[p.RDN] = struct{}{}
		}
	}
	return out
}

// rankCandidates turns search results into a ranked candidate target
// list. A returned domain becomes a candidate only when the page shows
// evidence of referencing it: a page term that is a substring of the
// candidate's mld (the phish spells its target's name somewhere) or an
// external link to the candidate. Evidence accumulates across queries;
// ranking is by evidence count, then search relevance, then RDN.
func refRankCandidates(resultSets [][]search.Result, pageTerms map[string]struct{}, extRDNs map[string]struct{}, a *webpage.Analysis) []Candidate {
	acc := make(map[string]*Candidate)
	for _, rs := range resultSets {
		for _, r := range rs {
			if _, own := a.ControlledRDNs[r.RDN]; own {
				continue
			}
			evidence := 0
			if _, linked := extRDNs[r.RDN]; linked {
				evidence += 2
			}
			for t := range pageTerms {
				if len(t) >= terms.MinTermLength && strings.Contains(r.MLD, t) {
					evidence++
				}
			}
			if evidence == 0 {
				continue
			}
			c, ok := acc[r.RDN]
			if !ok {
				c = &Candidate{RDN: r.RDN, MLD: r.MLD}
				acc[r.RDN] = c
			}
			c.Count += evidence
			c.Score += r.Score
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := make([]Candidate, 0, len(acc))
	for _, c := range acc {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].RDN < out[j].RDN
	})
	return out
}

// appendUnique appends the extras to base, skipping duplicates, without
// modifying base.
func refAppendUnique(base, extras []string) []string {
	out := make([]string, 0, len(base)+len(extras))
	seen := make(map[string]struct{}, len(base)+len(extras))
	for _, t := range base {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	for _, t := range extras {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// sameAsReference holds Identify and ExtractKeyterms on one analyzed
// page to the reference: reflect.DeepEqual compares the scores as
// float64 values, so a last-bit difference fails.
func sameAsReference(t *testing.T, id *Identifier, a *webpage.Analysis) Result {
	t.Helper()
	got, want := id.Identify(a), referenceIdentify(id, a)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (K=%d): Identify differs from the reference:\n got %+v\nwant %+v", a.Snap.StartingURL, id.K, got, want)
	}
	if kt := ExtractKeyterms(a, id.K); !reflect.DeepEqual(kt, want.Keyterms) {
		t.Fatalf("%s (K=%d): ExtractKeyterms = %+v, reference %+v", a.Snap.StartingURL, id.K, kt, want.Keyterms)
	}
	return got
}

// TestIdentifyMatchesReference holds Identify to the reference on
// phishing and legitimate pages: keyterms, step, candidates (scores
// bit-equal) and OCR terms. The set must reach every step of the
// process, or the paths that differ between the two went uncompared.
func TestIdentifyMatchesReference(t *testing.T) {
	c := corpus(t)
	id := New(c.Engine)
	var snaps []*webpage.Snapshot
	for _, ex := range c.PhishBrand.Examples {
		snaps = append(snaps, ex.Snapshot)
	}
	for _, ex := range c.LangTests[webgen.English].Examples {
		snaps = append(snaps, ex.Snapshot)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		site := c.World.NewPhishSite(rng, c.World.RandomPhishOptions(rng))
		snap, err := crawl.VisitSite(c.World, site)
		if err != nil {
			t.Fatalf("visit: %v", err)
		}
		snaps = append(snaps, snap)
	}
	steps := map[int]int{}
	ocrRanked := 0
	for _, snap := range snaps {
		got := sameAsReference(t, id, webpage.Analyze(snap))
		steps[got.StepsUsed]++
		if got.UsedOCR && len(got.Candidates) > 0 {
			ocrRanked++
		}
	}
	for step := 1; step <= 4; step++ {
		if steps[step] == 0 {
			t.Errorf("no page of %d ended at step %d (reached: %v)", len(snaps), step, steps)
		}
	}
	if ocrRanked == 0 {
		t.Error("no page ranked candidates from OCR terms: the step-4 evidence path went uncompared")
	}
}

// spelledEngine is a small fixed index whose mlds the shapes below and
// the fuzz seeds spell: mlds that contain one another, mlds that repeat
// a substring, one shorter than a term, and one RDN indexed under two
// mlds (evidence is a property of the mld a result carries).
func spelledEngine() *search.Engine {
	e := search.NewEngine()
	for _, d := range []search.Doc{
		{RDN: "paypal.com", MLD: "paypal", Terms: []string{"paypal", "pay", "pal", "wallet", "login", "account"}},
		{RDN: "paypalsecure.net", MLD: "paypalsecure", Terms: []string{"paypal", "paypalsecure", "secure", "login", "verify"}},
		{RDN: "papapal.org", MLD: "papapal", Terms: []string{"papapal", "pap", "pizza", "account"}},
		{RDN: "aaaa.io", MLD: "aaaa", Terms: []string{"aaaa", "aaa", "battery", "login"}},
		{RDN: "ab.co", MLD: "ab", Terms: []string{"short", "login", "account"}},
		{RDN: "paysphere.com", MLD: "paysphere", Terms: []string{"sphere", "wallet"}},
		{RDN: "paysphere.com", MLD: "sphere", Terms: []string{"sphere", "transfer", "wallet"}},
		{RDN: "novabank.com", MLD: "novabank", Terms: []string{"nova", "bank", "novabank", "login", "savings"}},
	} {
		d.URL = "https://www." + d.RDN + "/" + d.MLD
		e.Add(d)
	}
	return e
}

// shapePage is a hand-built page on one URL.
func shapePage(url, title, text, copyright string, screenshot ...string) *webpage.Snapshot {
	return &webpage.Snapshot{
		StartingURL: url, LandingURL: url, RedirectionChain: []string{url},
		Title: title, Text: text, Copyright: copyright, ScreenshotTerms: screenshot,
	}
}

// redirected is snap reached from another starting URL.
func redirected(start string, snap *webpage.Snapshot) *webpage.Snapshot {
	snap.StartingURL, snap.RedirectionChain = start, []string{start, snap.LandingURL}
	return snap
}

// TestIdentifyMatchesReferenceShapes extends the differential set with
// the inputs a merge and a substring lookup get wrong, each under a
// single keyterm, the default and more keyterms than the page has
// terms.
func TestIdentifyMatchesReferenceShapes(t *testing.T) {
	linked := shapePage("http://203.0.113.9/", "", "login savings account", "")
	linked.HREFLinks = []string{"https://www.novabank.com/login", "https://www.ab.co/"}
	shapes := map[string]*webpage.Snapshot{
		// One term in all seven sources, beside terms in one or two.
		"all seven sources": shapePage("http://paypal.paypal-login.test/paypal?paypal", "paypal", "paypal login account wallet", "paypal inc"),
		"text only":         shapePage("http://203.0.113.9/", "", "paypal wallet login", ""),
		"title only":        shapePage("http://203.0.113.9/", "novabank savings", "", ""),
		"no source at all":  shapePage("http://203.0.113.9/", "", "", ""),
		// Page terms that are substrings of one another, against mlds
		// that are too.
		"nested terms": shapePage("http://nested.test/", "pay", "pay paypal paypalsecure login verify secure", ""),
		// An mld spells "aaa" twice and "pap" twice: each counts once.
		"repeated substring": shapePage("http://repeat.test/", "", "aaa aaaa pap papapal apa battery pizza", ""),
		// ab.co comes back and can never be spelled.
		"mld shorter than a term": shapePage("http://short.test/", "short", "short login account", ""),
		// Nothing on the page names a returned mld; the screenshot does,
		// and repeats page terms ("wallet", and "pay", which paysphere
		// spells: it must count once, as a page term).
		"ocr duplicates page terms": shapePage("http://shot.test/", "transfer", "transfer transfer transfer pay wallet", "", "pay wallet sphere transfer", "sphere"),
		"external link":             linked,
		// An indexed host: its own domain comes back for its own terms, or
		// only once the landing RDN's terms join the query.
		"own site at step 1": shapePage("https://www.novabank.com/login", "novabank", "nova bank login savings", ""),
		"own site at step 2": redirected("http://short.link/x", shapePage("http://www.novabank.com/", "wallet sphere", "wallet sphere transfer", "")),
	}
	e := spelledEngine()
	steps := map[int]int{}
	for name, snap := range shapes {
		a := webpage.Analyze(snap)
		for _, k := range []int{1, DefaultKeyterms, 1000} {
			id := &Identifier{Engine: e, K: k, Results: DefaultResults, OCR: &ocr.Recognizer{}}
			got := sameAsReference(t, id, a)
			steps[got.StepsUsed]++
			t.Logf("%-26s K=%-4d step %d %-10s %+v", name, k, got.StepsUsed, got.Verdict, got.Candidates)
		}
	}
	for step := 1; step <= 4; step++ {
		if steps[step] == 0 {
			t.Errorf("no shape ended at step %d (reached: %v)", step, steps)
		}
	}

	// The shapes are what they claim to be.
	s := new(identifyScratch)
	s.mergeTerms(webpage.Analyze(shapes["all seven sources"]))
	i, ok := slices.BinarySearch(s.terms, "paypal")
	if !ok || s.stats[i].sources != len(keytermSources) {
		t.Errorf("\"paypal\" is in %d of the %d sources of the all-sources page", s.stats[i].sources, len(keytermSources))
	}
	if !slices.IsSorted(s.terms) || len(slices.Compact(slices.Clone(s.terms))) != len(s.terms) {
		t.Errorf("the merged table is not sorted and distinct: %q", s.terms)
	}
	s = new(identifyScratch)
	s.mergeTerms(webpage.Analyze(shapes["repeated substring"]))
	for mld, want := range map[string]int{"aaaa": 2, "papapal": 3, "ab": 0, "": 0, "paypal": 0} {
		// Against {aaa, aaaa, apa, pap, papapal, battery, pizza, ...}.
		if got := countSpelled(s.terms, nil, mld); got != want {
			t.Errorf("countSpelled(%q) = %d over %q, want %d", mld, got, s.terms, want)
		}
	}
}

// FuzzIdentifyMatchesReference lets the fuzzer write every source the
// identifier reads — title, text, copyright, both URLs, a link and the
// screenshot — and holds the result to the reference on the fixed
// engine: keyterms, step, candidates and scores bit-equal. The seeds
// spell the engine's mlds, so mutations stay near pages that rank
// candidates.
func FuzzIdentifyMatchesReference(f *testing.F) {
	f.Add("paypal", "paypal login account wallet", "paypal inc", "http://paypal.paypal-login.test/paypal", "http://paypal.paypal-login.test/paypal", "https://www.novabank.com/", "", uint8(5))
	f.Add("pay", "pay paypal paypalsecure aaa pap papapal", "", "http://nested.test/", "http://xn--pypal-4ve.test/", "", "", uint8(1))
	f.Add("transfer", "transfer transfer pay wallet", "", "http://shot.test/", "http://shot.test/", "http://ab.co/", "pay wallet sphere transfer", uint8(200))
	f.Add("", "", "", "", "http://203.0.113.9/", "", "novabank savings", uint8(0))
	e := spelledEngine()
	f.Fuzz(func(t *testing.T, title, text, copyright, start, land, link, screenshot string, k uint8) {
		snap := &webpage.Snapshot{
			StartingURL: start, LandingURL: land, RedirectionChain: []string{start, land},
			Title: title, Text: text, Copyright: copyright,
		}
		if link != "" {
			snap.HREFLinks = []string{link}
		}
		if screenshot != "" {
			snap.ScreenshotTerms = []string{screenshot}
		}
		id := &Identifier{Engine: e, K: int(k), Results: 4, OCR: &ocr.Recognizer{}}
		sameAsReference(t, id, webpage.Analyze(snap))
	})
}

// identifyAllocBudget bounds one warm identification by the step it
// ends at: what Identify allocates is what it returns. A page confirmed
// legitimate at step 1 returns its two keyterm lists (measured 2); a
// phishing page that runs both queries and ranks candidates returns the
// candidates as well (measured 3).
var identifyAllocBudget = map[int]float64{1: 2, 3: 4}

func TestIdentifyAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := corpus(t)
	id := New(c.Engine)
	measured := map[int]bool{}
	examples := append(slices.Clone(c.PhishBrand.Examples), c.LangTests[webgen.English].Examples...)
	for _, ex := range examples {
		a := webpage.Analyze(ex.Snapshot)
		res := id.Identify(a)
		budget, want := identifyAllocBudget[res.StepsUsed]
		if !want || measured[res.StepsUsed] || (res.StepsUsed == 3 && len(res.Candidates) == 0) {
			continue
		}
		measured[res.StepsUsed] = true
		allocs := testing.AllocsPerRun(100, func() { id.Identify(a) })
		t.Logf("a page decided at step %d: %.1f allocations per run, budget %.0f", res.StepsUsed, allocs, budget)
		if allocs > budget {
			t.Errorf("Identify (step %d) allocated %.1f times per run, budget %.0f", res.StepsUsed, allocs, budget)
		}
	}
	if !measured[1] || !measured[3] {
		t.Fatalf("the corpus has no page confirmed at step 1 or none ranked at step 3 (measured: %v)", measured)
	}
}
