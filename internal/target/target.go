// Package target implements the target identification system of Section V
// of the paper: given an analyzed page, it extracts keyterms from the
// data sources the page owner freely controls, queries a search engine
// with them, and either confirms the page as legitimate (its own
// registered domain appears in the results) or names the brands the page
// most plausibly mimics, ranked by evidence. Image-only pages fall back
// to OCR-extracted screenshot terms (step 4 of the process).
//
// The process mirrors the paper's steps:
//
//  1. Query with the boosted prominent terms. Own RDN returned →
//     legitimate.
//  2. Query with the prominent terms plus the landing mld terms. Own RDN
//     returned → legitimate.
//  3. Rank the returned domains as target candidates, keeping only those
//     the page actually references (a page term matching the candidate
//     mld, or an external link to the candidate). Candidates found →
//     phish with a target list.
//  4. If nothing was decided, repeat with OCR prominent terms from the
//     screenshot layer. Still nothing → suspicious (target unknown).
//
// An Identifier is safe for concurrent use: identification only reads
// its configuration and the search engine's read-locked index, and works
// in an identifyScratch of its own.
//
// The scratch is everything a page's identification needs and does not
// return: the page's term table (the k-way merge of the sorted keyterm
// sources into sorted parallel arrays — no map), the two bounded keyterm
// selections, step 2's query, the page's result sets back to back, the
// evidence already computed per returned domain, and the candidates
// before they are copied out at exact size. One is taken from a
// sync.Pool per call and goes back when the call returns, with every
// string it held cleared — terms are substrings of client-chosen page
// bytes, which a pool must not keep alive — unless the page grew its
// term table past maxPooledTerms, in which case it is dropped. What
// Identify allocates is what it returns: the keyterms, copied out of
// the analysis (one array for both lists, one string for their bytes),
// and the candidates.
package target

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"knowphish/internal/ocr"
	"knowphish/internal/search"
	"knowphish/internal/terms"
	"knowphish/internal/urlx"
	"knowphish/internal/webpage"
)

// Verdict is the outcome of target identification.
type Verdict int

// The three possible verdicts. The zero value is VerdictSuspicious: a
// page with no confirmed owner and no identifiable target stays suspect
// (Section VI-D treats these as "keep the detector's call").
const (
	VerdictSuspicious Verdict = iota
	VerdictLegitimate
	VerdictPhish
)

// String returns the verdict name used throughout logs and tables.
func (v Verdict) String() string {
	switch v {
	case VerdictSuspicious:
		return "suspicious"
	case VerdictLegitimate:
		return "legitimate"
	case VerdictPhish:
		return "phish"
	default:
		return "unknown"
	}
}

// verdictText holds each verdict's name, then any other value's.
var verdictText = func() (t [VerdictPhish + 2][]byte) {
	for v := range t {
		t[v] = []byte(Verdict(v).String())
	}
	return t
}()

// MarshalText encodes the verdict as its name, so JSON payloads carry
// "phish" rather than an opaque integer. The slice is shared: callers
// must not write it (encoding/json does not), and an append copies.
func (v Verdict) MarshalText() ([]byte, error) {
	t := verdictText[min(uint(v), uint(len(verdictText)-1))]
	return t[:len(t):len(t)], nil
}

// UnmarshalText decodes a verdict name (unknown names → suspicious).
func (v *Verdict) UnmarshalText(b []byte) error {
	switch string(b) {
	case "legitimate":
		*v = VerdictLegitimate
	case "phish":
		*v = VerdictPhish
	default:
		*v = VerdictSuspicious
	}
	return nil
}

// DefaultKeyterms is the number of keyterms per search query (the
// paper's choice of five).
const DefaultKeyterms = 5

// DefaultResults is how many search results each query examines.
const DefaultResults = 10

// keytermSources are the term distributions mined for keyterms (Section
// V-A): the owner-chosen content sources (title, text, copyright) and
// the URL sources, whose canonicalized terms recover brand references a
// homograph or typosquat domain tries to hide.
var keytermSources = [...]webpage.DistID{
	webpage.DistTitle,
	webpage.DistText,
	webpage.DistCopyright,
	webpage.DistStart,
	webpage.DistLand,
	webpage.DistStartRDN,
	webpage.DistLandRDN,
}

// Keyterms are the query terms extracted from a page.
type Keyterms struct {
	// Boosted are prominent terms appearing in at least two distinct
	// sources — the strongest signals of what the page is about.
	Boosted []string `json:"boosted,omitempty"`
	// Prominent are the highest-probability terms over all sources.
	Prominent []string `json:"prominent,omitempty"`
}

// ExtractKeyterms computes the boosted and prominent keyterms of an
// analyzed page, at most n of each. Deterministic: ties break
// lexicographically. The term strings are the analysis's own (see
// webpage.Analysis): valid until a.Release; a caller that keeps them
// longer copies them. Identify's Result owns its keyterms.
func ExtractKeyterms(a *webpage.Analysis, n int) Keyterms {
	s := scratchPool.Get().(*identifyScratch)
	defer s.release()
	s.mergeTerms(a)
	return s.keyterms(n)
}

// termStat is what the keyterm sources say about one term.
type termStat struct {
	score   float64 // probability summed across the sources
	sources int     // number of sources containing the term
}

// identifyScratch is the working memory of one identification (see the
// package comment for its lifetime).
type identifyScratch struct {
	// The page's term table: the distinct terms of the keyterm sources,
	// sorted, beside their statistics. Keyterm ranking reads the
	// statistics; candidate evidence searches the terms.
	terms []string
	stats []termStat
	// The keyterm selections so far: table indexes in rank order.
	prominent, boosted []int32

	query   []string        // step 2's query
	results []search.Result // the page's result sets, back to back in step order
	seen    []domainEvidence
	cands   []Candidate
}

// domainEvidence is the evidence count of one returned domain, computed
// the first time a result names it: the same domains come back from
// every step.
type domainEvidence struct {
	rdn, mld string
	n        int
}

var scratchPool = sync.Pool{New: func() any { return new(identifyScratch) }}

// maxPooledTerms bounds the term table a pooled scratch keeps: a page
// with more distinct terms (a hostile one; crawled pages have a few
// hundred) gets its table for the call and the scratch is dropped.
const maxPooledTerms = 4096

// emptied returns s zeroed and cut to length 0: a slice that keeps its
// array and no string alive.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// release returns s to the pool holding no strings, or drops it when
// the page outgrew maxPooledTerms.
func (s *identifyScratch) release() {
	if cap(s.terms) > maxPooledTerms {
		return
	}
	s.terms, s.stats = emptied(s.terms), s.stats[:0]
	s.query, s.results = emptied(s.query), emptied(s.results)
	s.seen, s.cands = emptied(s.seen), emptied(s.cands)
	scratchPool.Put(s)
}

// mergeTerms builds the page's term table: a k-way merge of the keyterm
// sources, each already sorted with parallel probabilities, by the
// terms' ranks in the page's dictionary, which order them as their
// bytes do. A term's probabilities are added in ascending source order,
// one source at a time, so its score has the bits a pass over the
// sources in that order gives it.
func (s *identifyScratch) mergeTerms(a *webpage.Analysis) {
	var src [len(keytermSources)]struct {
		ranks []int32
		terms []string
		probs []float64
	}
	for i, id := range keytermSources {
		d := a.Dist(id)
		src[i].ranks, src[i].terms, src[i].probs = a.Ranked(id).Ranks(), d.Terms(), d.Probs()
	}
	for {
		least, term := int32(-1), ""
		for i := range src {
			if len(src[i].ranks) > 0 && (least < 0 || src[i].ranks[0] < least) {
				least, term = src[i].ranks[0], src[i].terms[0]
			}
		}
		if least < 0 {
			return
		}
		var st termStat
		for i := range src {
			if len(src[i].ranks) > 0 && src[i].ranks[0] == least {
				st.score += src[i].probs[0]
				st.sources++
				src[i].ranks, src[i].terms, src[i].probs = src[i].ranks[1:], src[i].terms[1:], src[i].probs[1:]
			}
		}
		s.terms = append(s.terms, term)
		s.stats = append(s.stats, st)
	}
}

// byProminence orders table entries by summed probability, ties
// lexicographic.
func (s *identifyScratch) byProminence(a, b int32) int {
	return cmp.Or(cmp.Compare(s.stats[b].score, s.stats[a].score), strings.Compare(s.terms[a], s.terms[b]))
}

// byBoost orders table entries by source count first — a term the owner
// repeats across title, text, copyright and URL is the page's subject.
func (s *identifyScratch) byBoost(a, b int32) int {
	return cmp.Or(cmp.Compare(s.stats[b].sources, s.stats[a].sources), s.byProminence(a, b))
}

// keepBest inserts c into top, the at most n best entries so far in rank
// order; a full top drops its last to make room. The orders are total,
// so the selection does not depend on the order candidates arrive in.
func keepBest(top []int32, c int32, n int, order func(a, b int32) int) []int32 {
	i, _ := slices.BinarySearchFunc(top, c, order)
	if i == n {
		return top
	}
	return slices.Insert(top[:min(len(top), n-1)], i, c)
}

// keyterms selects the keyterms from the term table: the n most
// prominent terms, and the n best among those at least two sources
// share.
func (s *identifyScratch) keyterms(n int) Keyterms {
	if n <= 0 {
		n = DefaultKeyterms
	}
	s.prominent, s.boosted = s.prominent[:0], s.boosted[:0]
	for i := range s.terms {
		s.prominent = keepBest(s.prominent, int32(i), n, s.byProminence)
		if s.stats[i].sources >= 2 {
			s.boosted = keepBest(s.boosted, int32(i), n, s.byBoost)
		}
	}
	nb, n := len(s.boosted), len(s.boosted)+len(s.prominent)
	if n == 0 {
		return Keyterms{}
	}
	// Both lists are cut from one array, each capacity-limited.
	all := make([]string, n)
	for i, j := range s.boosted {
		all[i] = s.terms[j]
	}
	for i, j := range s.prominent {
		all[nb+i] = s.terms[j]
	}
	var k Keyterms
	if nb > 0 {
		k.Boosted = all[:nb:nb]
	}
	if n > nb {
		k.Prominent = all[nb:]
	}
	return k
}

// own copies the bytes of k's terms into one string and points the
// terms at it, in place: keyterms that outlive the analysis they were
// read from.
func (k Keyterms) own() {
	lists, size := [2][]string{k.Boosted, k.Prominent}, 0
	for _, list := range lists {
		for _, t := range list {
			size += len(t)
		}
	}
	var b strings.Builder
	b.Grow(size)
	for _, list := range lists {
		for _, t := range list {
			b.WriteString(t)
		}
	}
	rest := b.String()
	for _, list := range lists {
		for i, t := range list {
			list[i], rest = rest[:len(t)], rest[len(t):]
		}
	}
}

// Candidate is one potential phishing target.
type Candidate struct {
	// RDN is the candidate's registered domain.
	RDN string `json:"rdn"`
	// MLD is the candidate's main level domain.
	MLD string `json:"mld"`
	// Count is the accumulated evidence weight: page terms matching the
	// mld, external links to the candidate, appearances across queries.
	Count int `json:"count"`
	// Score is the summed search relevance, the tie-breaker.
	Score float64 `json:"score"`
}

// Result is the outcome of identifying one page.
type Result struct {
	// Verdict is the final call.
	Verdict Verdict `json:"verdict"`
	// StepsUsed is the process step (1–4) that produced the verdict.
	StepsUsed int `json:"steps_used"`
	// Keyterms are the extracted query terms.
	Keyterms Keyterms `json:"keyterms"`
	// Candidates are the ranked candidate targets (phish verdicts only).
	Candidates []Candidate `json:"candidates,omitempty"`
	// UsedOCR reports whether the step-4 OCR fallback ran.
	UsedOCR bool `json:"used_ocr,omitempty"`
	// OCRProminent are the prominent terms OCR recovered, when UsedOCR.
	OCRProminent []string `json:"ocr_prominent,omitempty"`
}

// Identifier runs the Section V process against a search engine.
type Identifier struct {
	// Engine is the legitimate-web index. Required.
	Engine *search.Engine
	// K is the number of keyterms per query (0 → DefaultKeyterms).
	K int
	// Results is the number of search results examined per query
	// (0 → DefaultResults).
	Results int
	// OCR recognizes screenshot text for the step-4 fallback
	// (nil → a noiseless recognizer).
	OCR *ocr.Recognizer
}

// New returns an identifier with the paper's defaults: five keyterms per
// query and the default OCR noise model.
func New(engine *search.Engine) *Identifier {
	return &Identifier{Engine: engine, K: DefaultKeyterms, Results: DefaultResults, OCR: ocr.Default()}
}

// Identify runs the full process on an analyzed page.
func (id *Identifier) Identify(a *webpage.Analysis) Result {
	k := id.K
	if k <= 0 {
		k = DefaultKeyterms
	}
	nres := id.Results
	if nres <= 0 {
		nres = DefaultResults
	}
	s := scratchPool.Get().(*identifyScratch)
	defer s.release()
	// The table is read twice: its statistics rank the keyterms, and its
	// sorted terms are what candidate evidence is looked up in.
	s.mergeTerms(a)
	res := Result{Keyterms: s.keyterms(k)}
	res.Keyterms.own()

	// Step 1: boosted prominent terms.
	q1 := res.Keyterms.Boosted
	if len(q1) == 0 {
		q1 = res.Keyterms.Prominent
	}
	s.results = id.Engine.AppendQuery(s.results, q1, nres)
	if containsOwn(s.results, a) {
		res.Verdict, res.StepsUsed = VerdictLegitimate, 1
		return res
	}

	// Step 2: prominent terms plus the landing mld terms, the paper's
	// second, more site-specific query. The landing terms follow in the
	// order the RDN spells them (a relevance score sums in query order)
	// and are the analysis's own strings; a term both lists hold counts
	// once, the engine sees to that.
	s.query = append(s.query, res.Keyterms.Prominent...)
	s.query = a.Dist(webpage.DistLandRDN).AppendExtract(s.query, a.Land.UnicodeRDN())
	step2 := len(s.results)
	s.results = id.Engine.AppendQuery(s.results, s.query, nres)
	if containsOwn(s.results[step2:], a) {
		res.Verdict, res.StepsUsed = VerdictLegitimate, 2
		return res
	}

	// Step 3: rank the returned domains as candidate targets.
	res.Candidates = s.rankCandidates(nil, a)
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
			step4 := len(s.results)
			s.results = id.Engine.AppendQuery(s.results, res.OCRProminent, nres)
			if containsOwn(s.results[step4:], a) {
				res.Verdict = VerdictLegitimate
				return res
			}
			res.Candidates = s.rankCandidates(dist.Terms(), a)
			if len(res.Candidates) > 0 {
				res.Verdict = VerdictPhish
				return res
			}
		}
	}

	res.Verdict = VerdictSuspicious
	return res
}

// linksTo reports whether a link leaving the controlled domain set
// points at rdn — strong evidence: a phish links to its target's real
// site.
func linksTo(a *webpage.Analysis, rdn string) bool {
	to := func(p urlx.Parts) bool { return p.RDN == rdn }
	return rdn != "" && (slices.ContainsFunc(a.ExtLog, to) || slices.ContainsFunc(a.ExtLink, to))
}

// containsOwn reports whether any search result names a domain the page
// owner controls — the "own site found, page is legitimate" test. A
// matching mld also counts, covering regional variants of one brand.
func containsOwn(results []search.Result, a *webpage.Analysis) bool {
	for _, r := range results {
		if _, ok := a.ControlledRDNs[r.RDN]; ok {
			return true
		}
		if r.MLD != "" && (r.MLD == a.Land.MLD || r.MLD == a.Start.MLD) {
			return true
		}
	}
	return false
}

// rankCandidates turns the page's search results so far into a ranked
// candidate target list. A returned domain becomes a candidate only when
// the page shows evidence of referencing it: a term of the page (or, in
// step 4, of its screenshot) that is a substring of the candidate's mld
// — the phish spells its target's name somewhere — or an external link
// to the candidate. Evidence accumulates across queries; ranking is by
// evidence count, then search relevance, then RDN. The list is built in
// scratch and returned as a copy of exactly its size.
func (s *identifyScratch) rankCandidates(ocrTerms []string, a *webpage.Analysis) []Candidate {
	s.seen, s.cands = emptied(s.seen), emptied(s.cands)
	for _, r := range s.results {
		if _, own := a.ControlledRDNs[r.RDN]; own {
			continue
		}
		evidence := s.evidence(r, ocrTerms, a)
		if evidence == 0 {
			continue
		}
		i := slices.IndexFunc(s.cands, func(c Candidate) bool { return c.RDN == r.RDN })
		if i < 0 {
			i = len(s.cands)
			s.cands = append(s.cands, Candidate{RDN: r.RDN, MLD: r.MLD})
		}
		s.cands[i].Count += evidence
		s.cands[i].Score += r.Score
	}
	if len(s.cands) == 0 {
		return nil
	}
	slices.SortFunc(s.cands, func(x, y Candidate) int {
		return cmp.Or(cmp.Compare(y.Count, x.Count), cmp.Compare(y.Score, x.Score), strings.Compare(x.RDN, y.RDN))
	})
	out := make([]Candidate, len(s.cands))
	copy(out, s.cands)
	return out
}

// evidence returns how strongly the page references the domain r names:
// 2 for an external link to it, 1 for every page term its mld spells
// and, in step 4, 1 for every screenshot term not on the page that it
// spells. It is computed once per domain.
func (s *identifyScratch) evidence(r search.Result, ocrTerms []string, a *webpage.Analysis) int {
	for i := range s.seen {
		if e := &s.seen[i]; e.rdn == r.RDN && e.mld == r.MLD {
			return e.n
		}
	}
	n := countSpelled(s.terms, nil, r.MLD)
	if ocrTerms != nil {
		n += countSpelled(ocrTerms, s.terms, r.MLD)
	}
	if linksTo(a, r.RDN) {
		n += 2
	}
	s.seen = append(s.seen, domainEvidence{rdn: r.RDN, mld: r.MLD, n: n})
	return n
}

// countSpelled counts the terms of table, sorted and distinct, that are
// at least terms.MinTermLength long, occur in mld and are not in except
// (sorted too). It asks the question from the mld's side — which of its
// distinct substrings does the table hold — so the cost is bounded by
// the mld, whatever the size of the page: for every start i, the run of
// table entries that share mld[i:j] is narrowed one byte at a time until
// it is empty, and an entry that ends where the shared prefix does is
// mld[i:j] itself.
func countSpelled(table, except []string, mld string) int {
	n := 0
	for i := 0; i+terms.MinTermLength <= len(mld); i++ {
		lo, hi := 0, len(table)
		for p := 0; i+p < len(mld) && lo < hi; p++ {
			c := int(mld[i+p])
			lo = firstWith(table, lo, hi, p, c)
			hi = firstWith(table, lo, hi, p, c+1)
			if lo == hi || len(table[lo]) != p+1 || p+1 < terms.MinTermLength {
				continue
			}
			// table[lo] is mld[i:i+p+1]. A substring the mld repeats
			// ("pap" in "papapal") counts where it first occurs.
			if t := table[lo]; strings.Index(mld, t) == i {
				if _, skip := slices.BinarySearch(except, t); !skip {
					n++
				}
			}
		}
	}
	return n
}

// firstWith returns the first index in [lo, hi) of table whose entry has
// a byte at position p that is at least c, or hi. The entries of the
// range share their first p bytes, so one that ends there sorts first.
func firstWith(table []string, lo, hi, p, c int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t := table[mid]; len(t) > p && int(t[p]) >= c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
