package experiments

import (
	"slices"
	"testing"

	"knowphish/internal/search"
	"knowphish/internal/target"
	"knowphish/internal/terms"
	"knowphish/internal/webpage"
)

// Why a phishBrand page is one of Table IX's misses at top-3.
const (
	// A result of step 1 or 2 named a domain the page controls, or its
	// mld: the phish sits on a compromised host that is itself indexed,
	// and the process calls it legitimate before any candidate is ranked.
	missConfirmedLegitimate = "confirmed legitimate"
	// No query the identifier issued returned the true target.
	missNotReturned = "target in no result set"
	// The target came back, but no page term spells its mld and no
	// external link points at it, so it never became a candidate.
	missNoEvidence = "target returned, zero evidence"
	// The target is a candidate, ranked fourth or lower.
	missRankedBelow = "ranked below top-3"
)

// explainMiss classifies a page TableIX counts as missed at top-3. It
// re-issues the queries Identify ran (rebuilt from the result, as the
// repository benchmark does) to see whether the target came back.
func explainMiss(id *target.Identifier, a *webpage.Analysis, res target.Result, targetMLD string) string {
	if res.Verdict == target.VerdictLegitimate {
		return missConfirmedLegitimate
	}
	if slices.ContainsFunc(res.Candidates, func(c target.Candidate) bool { return c.MLD == targetMLD }) {
		return missRankedBelow
	}
	q1 := res.Keyterms.Boosted
	if len(q1) == 0 {
		q1 = res.Keyterms.Prominent
	}
	queries := [][]string{q1}
	if res.StepsUsed >= 2 {
		queries = append(queries, append(slices.Clone(res.Keyterms.Prominent), terms.Extract(a.Land.UnicodeRDN())...))
	}
	if len(res.OCRProminent) > 0 {
		queries = append(queries, res.OCRProminent)
	}
	for _, q := range queries {
		if slices.ContainsFunc(id.Engine.Query(q, id.Results), func(r search.Result) bool { return r.MLD == targetMLD }) {
			return missNoEvidence
		}
	}
	return missNotReturned
}

// TestTableIXMissesExplained says why Table IX's top-k curve is flat at
// this scale (ROADMAP 6c): every page it counts as missed at top-3 is
// logged with its class, and the per-class counts are pinned. A miss
// moving between classes, or a new one, is a change to the identifier
// or to the synthetic world that table_ix.txt alone would show only as
// a number.
func TestTableIXMissesExplained(t *testing.T) {
	r := runner(t)
	id := target.New(r.Corpus.Engine)
	got := map[string]int{}
	for _, ex := range r.Corpus.PhishBrand.Examples {
		a := webpage.Analyze(ex.Snapshot)
		res := id.Identify(a)
		if (ex.NoHint && res.Verdict != target.VerdictPhish) || foundWithin(res, ex.TargetMLD, 3) {
			continue // TableIX's unknown and identified
		}
		class := explainMiss(id, a, res, ex.TargetMLD)
		got[class]++
		t.Logf("missed %s (target %s, no-hint %v): %s — %s at step %d, keyterms %v, candidates %v",
			ex.Snapshot.LandingURL, ex.TargetMLD, ex.NoHint, class, res.Verdict, res.StepsUsed, res.Keyterms.Prominent, res.Candidates)
	}
	// Scale 25, the runner's seeds: four phish on compromised hosts that
	// are indexed themselves, and one whose keyterms are all spelled by
	// its own host name (which generic indexed domains share syllables
	// with), so no query reaches the brand. None is ranked and lost:
	// top-1, top-2 and top-3 miss the same five pages.
	want := map[string]int{missConfirmedLegitimate: 4, missNotReturned: 1}
	for class, n := range want {
		if got[class] != n {
			t.Errorf("%d pages missed as %q, pinned %d", got[class], class, n)
		}
	}
	for class, n := range got {
		if _, pinned := want[class]; !pinned {
			t.Errorf("%d pages missed as %q, a class with no pinned count", n, class)
		}
	}
}
