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
// its configuration and the search engine's read-locked index.
package target

import (
	"cmp"
	"slices"
	"strings"

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

// MarshalText encodes the verdict as its name, so JSON payloads carry
// "phish" rather than an opaque integer.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

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
var keytermSources = []webpage.DistID{
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
// lexicographically.
func ExtractKeyterms(a *webpage.Analysis, n int) Keyterms {
	return keytermsFromStats(termStats(a), n)
}

// termStat is what the keyterm sources say about one term.
type termStat struct {
	score   float64 // probability summed across the sources
	sources int     // number of sources containing the term
}

// termStats builds the page's one term table: every term of the
// keyterm sources with its statistics. Keyterm ranking reads the
// values; candidate evidence reads the keys, the page's full term set.
// Sources are visited in fixed order and terms in sorted order, so the
// float accumulation is bit-reproducible.
func termStats(a *webpage.Analysis) map[string]termStat {
	table := make(map[string]termStat, a.Dist(webpage.DistText).Len())
	for _, id := range keytermSources {
		d := a.Dist(id)
		probs := d.Probs()
		for i, t := range d.Terms() {
			st := table[t]
			st.score += probs[i]
			st.sources++
			table[t] = st
		}
	}
	return table
}

type rankedTerm struct {
	term string
	termStat
}

// byProminence orders terms by summed probability, ties lexicographic.
func byProminence(a, b rankedTerm) int {
	return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.term, b.term))
}

// byBoost orders terms by source count first — a term the owner repeats
// across title, text, copyright and URL is the page's subject.
func byBoost(a, b rankedTerm) int {
	return cmp.Or(cmp.Compare(b.sources, a.sources), byProminence(a, b))
}

// keepBest inserts c into top, the at most n best terms so far in rank
// order; a full top drops its last to make room. The orders are total,
// so the selection does not depend on the order candidates arrive in.
func keepBest(top []rankedTerm, c rankedTerm, n int, order func(a, b rankedTerm) int) []rankedTerm {
	i, _ := slices.BinarySearchFunc(top, c, order)
	if i == n {
		return top
	}
	return slices.Insert(top[:min(len(top), n-1)], i, c)
}

// keytermsFromStats selects the keyterms from an already-built term
// table: the n most prominent terms, and the n best among those at
// least two sources share.
func keytermsFromStats(table map[string]termStat, n int) Keyterms {
	if n <= 0 {
		n = DefaultKeyterms
	}
	prominent := make([]rankedTerm, 0, min(n, len(table)))
	boosted := make([]rankedTerm, 0, min(n, len(table)))
	for t, st := range table {
		c := rankedTerm{t, st}
		prominent = keepBest(prominent, c, n, byProminence)
		if st.sources >= 2 {
			boosted = keepBest(boosted, c, n, byBoost)
		}
	}
	return Keyterms{Boosted: termsOf(boosted), Prominent: termsOf(prominent)}
}

func termsOf(ranked []rankedTerm) []string {
	if len(ranked) == 0 {
		return nil
	}
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.term
	}
	return out
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
	// The table's key set doubles as the evidence pool for candidate
	// filtering.
	pageTerms := termStats(a)
	res := Result{Keyterms: keytermsFromStats(pageTerms, k)}

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
	q2 := slices.Clone(res.Keyterms.Prominent)
	for _, t := range terms.Extract(a.Land.UnicodeRDN()) {
		if !slices.Contains(q2, t) {
			q2 = append(q2, t)
		}
	}
	r2 := id.Engine.Query(q2, nres)
	if containsOwn(r2, a) {
		res.Verdict, res.StepsUsed = VerdictLegitimate, 2
		return res
	}

	// Step 3: rank the returned domains as candidate targets.
	res.Candidates = rankCandidates([][]search.Result{r1, r2}, pageTerms, nil, a)
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
			res.Candidates = rankCandidates([][]search.Result{r1, r2, r3}, pageTerms, dist.Terms(), a)
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

// rankCandidates turns search results into a ranked candidate target
// list. A returned domain becomes a candidate only when the page shows
// evidence of referencing it: a term of the page (or, in step 4, of its
// screenshot) that is a substring of the candidate's mld — the phish
// spells its target's name somewhere — or an external link to the
// candidate. Evidence accumulates across queries; ranking is by
// evidence count, then search relevance, then RDN.
func rankCandidates(resultSets [][]search.Result, pageTerms map[string]termStat, ocrTerms []string, a *webpage.Analysis) []Candidate {
	spelled := func(mld, t string) bool {
		return len(t) >= terms.MinTermLength && strings.Contains(mld, t)
	}
	var out []Candidate
	for _, rs := range resultSets {
		for _, r := range rs {
			if _, own := a.ControlledRDNs[r.RDN]; own {
				continue
			}
			evidence := 0
			if linksTo(a, r.RDN) {
				evidence += 2
			}
			for t := range pageTerms {
				if spelled(r.MLD, t) {
					evidence++
				}
			}
			for _, t := range ocrTerms {
				if _, onPage := pageTerms[t]; !onPage && spelled(r.MLD, t) {
					evidence++
				}
			}
			if evidence == 0 {
				continue
			}
			i := slices.IndexFunc(out, func(c Candidate) bool { return c.RDN == r.RDN })
			if i < 0 {
				i = len(out)
				out = append(out, Candidate{RDN: r.RDN, MLD: r.MLD})
			}
			out[i].Count += evidence
			out[i].Score += r.Score
		}
	}
	slices.SortFunc(out, func(x, y Candidate) int {
		return cmp.Or(cmp.Compare(y.Count, x.Count), cmp.Compare(y.Score, x.Score), strings.Compare(x.RDN, y.RDN))
	})
	return out
}
