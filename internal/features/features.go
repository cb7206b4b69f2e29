// Package features implements the paper's 212-feature set (Section IV-B,
// Table III):
//
//	f1 (106) — URL statistics split by control and constraint
//	f2  (66) — pairwise Hellinger distances between term distributions
//	f3  (22) — usage of the starting and landing mld across sources
//	f4  (13) — RDN-usage consistency
//	f5   (5) — webpage content counts
//
// The extractor consumes a webpage.Analysis and a popularity ranking; it
// uses no learned vocabulary, no language resources and no online service,
// which is what makes the feature set adaptable, usable and
// language-independent (Section IV-A).
package features

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"knowphish/internal/ranking"
	"knowphish/internal/terms"
	"knowphish/internal/urlx"
	"knowphish/internal/webpage"
)

// Feature-set sizes from Table III. TotalCount must equal 212.
const (
	CountF1    = 106
	CountF2    = 66
	CountF3    = 22
	CountF4    = 13
	CountF5    = 5
	TotalCount = CountF1 + CountF2 + CountF3 + CountF4 + CountF5
)

// Set is a bitmask of feature groups, used to evaluate the per-set
// experiments of Table VII / Fig. 2 / Fig. 5.
type Set uint8

// Feature groups and the combinations the paper evaluates.
const (
	F1 Set = 1 << iota
	F2
	F3
	F4
	F5

	F15  = F1 | F5
	F234 = F2 | F3 | F4
	All  = F1 | F2 | F3 | F4 | F5
)

// PaperSets lists the eight feature-set combinations the paper evaluates
// (Table VII, Fig. 2, Fig. 5), in its order.
var PaperSets = []Set{F1, F2, F3, F4, F5, F15, F234, All}

// String names the set the way the paper does (f1, f2,3,4, fall, ...).
func (s Set) String() string {
	if s == All {
		return "fall"
	}
	var parts []string
	for i, g := range []Set{F1, F2, F3, F4, F5} {
		if s&g != 0 {
			parts = append(parts, fmt.Sprintf("%d", i+1))
		}
	}
	if len(parts) == 0 {
		return "f none"
	}
	return "f" + strings.Join(parts, ",")
}

// Extractor computes feature vectors. The zero value works but treats all
// domains as unranked; set Rank to the world's popularity list for
// feature 9.
type Extractor struct {
	// Rank is the local popularity list (the paper's offline Alexa
	// copy). Nil means every domain is unranked.
	Rank *ranking.List
}

// Extract computes the full 212-feature vector for an analyzed page.
// The layout is [f1 | f2 | f3 | f4 | f5]; Names gives per-column names and
// Indices gives per-set column spans.
func (e *Extractor) Extract(a *webpage.Analysis) []float64 {
	return e.AppendFeatures(make([]float64, 0, TotalCount), a)
}

// AppendFeatures appends the full 212-feature vector to dst and returns
// the extended slice — the allocation-free form of Extract. Given a dst
// with capacity TotalCount (see GetVector) it performs zero heap
// allocations: every intermediate the extraction needs (per-column
// aggregation buffers, the median sort scratch, folded mld terms, RDN
// sets) comes from a pooled per-call scratch that is returned when the
// append completes. Values are bit-for-bit identical to Extract's.
func (e *Extractor) AppendFeatures(dst []float64, a *webpage.Analysis) []float64 {
	sc := getScratch()
	dst = e.appendF1(dst, a, sc)
	dst = appendF2(dst, a)
	dst = appendF3(dst, a, sc)
	dst = appendF4(dst, a, sc)
	dst = appendF5(dst, a)
	putScratch(sc)
	return dst
}

// ExtractSnapshot analyzes the snapshot and extracts its features; the
// analysis goes back to its pool once the vector is extracted.
func (e *Extractor) ExtractSnapshot(s *webpage.Snapshot) []float64 {
	a := webpage.Analyze(s)
	defer a.Release()
	return e.Extract(a)
}

// urlStats computes the nine per-URL features of Table IV.
// Order: [1 protocol, 2 dotsInFreeURL, 3 levelDomains, 4 lenURL,
// 5 lenFQDN, 6 lenMLD, 7 termsInURL, 8 termsInMLD, 9 rank].
func (e *Extractor) urlStats(p urlx.Parts) [9]float64 {
	var f [9]float64
	if p.IsHTTPS() {
		f[0] = 1
	}
	f[1] = float64(p.FreeURLDots())
	f[2] = float64(p.LevelDomains())
	f[3] = float64(len(p.Raw))
	f[4] = float64(len(p.FQDN))
	f[5] = float64(len(p.MLD))
	f[6] = float64(terms.Count(p.Raw))
	f[7] = float64(terms.Count(p.MLD))
	f[8] = float64(e.Rank.Rank(p.RDN))
	if p.RDN == "" {
		f[8] = ranking.UnrankedValue
	}
	return f
}

// appendF1 emits the 106 URL features: 9 for the starting URL, 9 for the
// landing URL, and for each of the four link groups (internal/external ×
// logged/HREF) the mean/median/stdev of features 3–9 plus the https ratio.
func (e *Extractor) appendF1(out []float64, a *webpage.Analysis, sc *scratch) []float64 {
	start := e.urlStats(a.Start)
	land := e.urlStats(a.Land)
	out = append(out, start[:]...)
	out = append(out, land[:]...)
	for _, group := range [4][]urlx.Parts{a.IntLog, a.ExtLog, a.IntLink, a.ExtLink} {
		out = e.appendGroupStats(out, group, sc)
	}
	return out
}

// appendGroupStats emits the 22 features of one link group: features 3–9
// aggregated as mean, median, stdev (7×3) plus the https ratio (1).
func (e *Extractor) appendGroupStats(out []float64, group []urlx.Parts, sc *scratch) []float64 {
	n := len(group)
	// Collect per-URL values for features 3..9 (indices 2..8).
	for c := range sc.cols {
		sc.cols[c] = sc.cols[c][:0]
	}
	var httpsCount int
	for _, p := range group {
		s := e.urlStats(p)
		for c := 0; c < 7; c++ {
			sc.cols[c] = append(sc.cols[c], s[c+2])
		}
		if s[0] == 1 {
			httpsCount++
		}
	}
	for c := 0; c < 7; c++ {
		m, med, sd := meanMedianStd(sc.cols[c], sc)
		out = append(out, m, med, sd)
	}
	ratio := 0.0
	if n > 0 {
		ratio = float64(httpsCount) / float64(n)
	}
	return append(out, ratio)
}

// appendF2 emits the 66 pairwise Hellinger distances between the twelve
// feature distributions of Table I, pairs in canonical order.
func appendF2(out []float64, a *webpage.Analysis) []float64 {
	ids := webpage.FeatureDistIDs
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			out = append(out, terms.Hellinger(a.Dist(ids[i]), a.Dist(ids[j])))
		}
	}
	return out
}

// f3Sources are the six distributions checked for mld presence (binary
// features) and the five checked for substring-probability sums (Dtext is
// excluded from the sums: too many short irrelevant terms, Section IV-B).
var (
	f3BinarySources = []webpage.DistID{
		webpage.DistText, webpage.DistTitle,
		webpage.DistIntLog, webpage.DistExtLog,
		webpage.DistIntLink, webpage.DistExtLink,
	}
	f3SumSources = []webpage.DistID{
		webpage.DistTitle,
		webpage.DistIntLog, webpage.DistExtLog,
		webpage.DistIntLink, webpage.DistExtLink,
	}
)

// mldTerm folds an mld to its letters-only form, the term its usage in
// text would produce ("secure-login-77" → "securelogin").
func mldTerm(mld string) string {
	return string(terms.AppendFolded(nil, mld))
}

// appendF3 emits the 22 mld-usage features: 12 binary presence flags
// (starting and landing mld × six sources) and 10 substring-probability
// sums (starting and landing mld × five sources). Each mld is folded
// once into the scratch buffer and compared as bytes, so the whole
// group allocates nothing for ASCII domains (punycode mlds pay one
// decode).
func appendF3(out []float64, a *webpage.Analysis, sc *scratch) []float64 {
	// Punycode mlds are decoded first so homograph domains compare by
	// their folded unicode form.
	sc.mlds = terms.AppendFolded(sc.mlds[:0], a.Start.UnicodeMLD())
	startLen := len(sc.mlds)
	sc.mlds = terms.AppendFolded(sc.mlds, a.Land.UnicodeMLD())
	folded := [2][]byte{sc.mlds[:startLen], sc.mlds[startLen:]}
	for _, t := range folded {
		for _, src := range f3BinarySources {
			v := 0.0
			if len(t) >= terms.MinTermLength && a.Dist(src).ContainsBytes(t) {
				v = 1
			}
			out = append(out, v)
		}
	}
	for _, t := range folded {
		for _, src := range f3SumSources {
			out = append(out, a.Dist(src).SubstringProbabilitySumBytes(t))
		}
	}
	return out
}

// appendF4 emits the 13 RDN-usage features (our instantiation of the
// paper's category). The internal and external halves of each link
// class are walked in place — the merged logged/HREF views exist only
// conceptually — and the distinct-RDN sets live in the reusable scratch
// maps, so the group allocates nothing once the maps have grown to the
// traffic's working size.
func appendF4(out []float64, a *webpage.Analysis, sc *scratch) []float64 {
	chainRDNs := distinctRDNs2(sc.set, a.Chain, nil)
	sameRDN := 0.0
	if a.Start.RDN != "" && a.Start.RDN == a.Land.RDN {
		sameRDN = 1
	}

	loggedRDNs := distinctRDNs2(sc.set, a.IntLog, a.ExtLog)
	hrefRDNs := distinctRDNs2(sc.set, a.IntLink, a.ExtLink)
	totalLog := len(a.IntLog) + len(a.ExtLog)
	totalLink := len(a.IntLink) + len(a.ExtLink)

	clear(sc.counts)
	for _, p := range a.ExtLog {
		if p.RDN != "" {
			sc.counts[p.RDN]++
		}
	}
	for _, p := range a.ExtLink {
		if p.RDN != "" {
			sc.counts[p.RDN]++
		}
	}
	maxExtConcentration := 0.0
	totalExt := len(a.ExtLog) + len(a.ExtLink)
	if totalExt > 0 {
		maxCount := 0
		for _, c := range sc.counts {
			if c > maxCount {
				maxCount = c
			}
		}
		maxExtConcentration = float64(maxCount) / float64(totalExt)
	}

	out = append(out,
		float64(len(a.Chain)),                       // 1 chain length
		float64(chainRDNs),                          // 2 distinct RDNs in chain
		sameRDN,                                     // 3 start RDN == landing RDN
		float64(loggedRDNs),                         // 4 distinct RDNs in logged
		float64(hrefRDNs),                           // 5 distinct RDNs in HREF
		intRatio(len(a.IntLog), totalLog),           // 6 internal ratio logged
		intRatio(len(a.IntLink), totalLink),         // 7 internal ratio HREF
		float64(len(a.ExtLog)),                      // 8 external logged count
		float64(len(a.ExtLink)),                     // 9 external HREF count
		landShare(a.Land.RDN, a.IntLog, a.ExtLog),   // 10 landing-RDN share, logged
		landShare(a.Land.RDN, a.IntLink, a.ExtLink), // 11 landing-RDN share, HREF
		float64(len(sc.counts)),                     // 12 distinct external RDNs
		maxExtConcentration,                         // 13 max external concentration
	)
	return out
}

func intRatio(internal, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(internal) / float64(total)
}

// landShare is the fraction of the concatenated group g1‖g2 whose RDN
// equals the landing RDN.
func landShare(landRDN string, g1, g2 []urlx.Parts) float64 {
	total := len(g1) + len(g2)
	if total == 0 || landRDN == "" {
		return 0
	}
	n := 0
	for _, p := range g1 {
		if p.RDN == landRDN {
			n++
		}
	}
	for _, p := range g2 {
		if p.RDN == landRDN {
			n++
		}
	}
	return float64(n) / float64(total)
}

// distinctRDNs2 counts distinct non-empty RDNs across two groups using
// the given scratch set (cleared first, retained for reuse).
func distinctRDNs2(set map[string]struct{}, g1, g2 []urlx.Parts) int {
	clear(set)
	for _, p := range g1 {
		if p.RDN != "" {
			set[p.RDN] = struct{}{}
		}
	}
	for _, p := range g2 {
		if p.RDN != "" {
			set[p.RDN] = struct{}{}
		}
	}
	return len(set)
}

// appendF5 emits the 5 webpage-content features.
func appendF5(out []float64, a *webpage.Analysis) []float64 {
	return append(out,
		float64(a.Dist(webpage.DistText).TotalOccurrences()),
		float64(a.Dist(webpage.DistTitle).TotalOccurrences()),
		float64(a.Snap.InputCount),
		float64(a.Snap.ImageCount),
		float64(a.Snap.IFrameCount),
	)
}

// meanMedianStd computes the three aggregates of one column; empty input
// yields zeros (links of that group absent — the paper's features simply
// read 0, Section VII-B discusses the resulting null features). The
// median sorts a copy of v held in the scratch, leaving v untouched.
func meanMedianStd(v []float64, sc *scratch) (mean, median, std float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean = sum / float64(n)
	var sq float64
	for _, x := range v {
		d := x - mean
		sq += d * d
	}
	std = math.Sqrt(sq / float64(n))
	sc.sorted = append(sc.sorted[:0], v...)
	sort.Float64s(sc.sorted)
	if n%2 == 1 {
		median = sc.sorted[n/2]
	} else {
		median = (sc.sorted[n/2-1] + sc.sorted[n/2]) / 2
	}
	return mean, median, std
}
