package features

import (
	"knowphish/internal/terms"
	"knowphish/internal/urlx"
	"knowphish/internal/webpage"
)

// This file provides the feature variants used by the design ablations
// (experiments.Index, A1–A6): they are NOT part of the paper's
// 212-feature set, but isolate two design decisions the paper motivates
// in Section VII-A — the control/constraint split of the URL features
// and the choice of the Hellinger distance — so the benefit of each can
// be measured.

// UnsplitF1Count is the size of the ablated f1 variant: 9 starting + 9
// landing + 2 merged groups (logged, HREF) × 22 = 62. The internal versus
// external separation is removed.
const UnsplitF1Count = 9 + 9 + 2*22

// ExtractUnsplitF1 computes the f1 ablation: the same URL statistics, but
// with logged and HREF links aggregated without the internal/external
// split of Section III-A. Comparing a model on these 62 features against
// one on f1's 106 measures what the control/constraint modeling buys
// (ablation A1).
func (e *Extractor) ExtractUnsplitF1(a *webpage.Analysis) []float64 {
	out := make([]float64, 0, UnsplitF1Count)
	start := e.urlStats(a.Start)
	land := e.urlStats(a.Land)
	out = append(out, start[:]...)
	out = append(out, land[:]...)
	logged := append(append([]urlx.Parts{}, a.IntLog...), a.ExtLog...)
	href := append(append([]urlx.Parts{}, a.IntLink...), a.ExtLink...)
	sc := getScratch()
	out = e.appendGroupStats(out, logged, sc)
	out = e.appendGroupStats(out, href, sc)
	putScratch(sc)
	return out
}

// DistanceMetric is a dissimilarity between term distributions in [0,1].
type DistanceMetric func(p, q terms.Distribution) float64

// ExtractF2With computes the 66 pairwise-distance features with an
// alternative metric (ablation A2; the paper uses Hellinger).
func ExtractF2With(a *webpage.Analysis, metric DistanceMetric) []float64 {
	ids := webpage.FeatureDistIDs
	out := make([]float64, 0, CountF2)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			out = append(out, metric(a.Dist(ids[i]), a.Dist(ids[j])))
		}
	}
	return out
}
