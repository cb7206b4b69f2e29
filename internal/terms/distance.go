package terms

import "math"

// Hellinger computes the squared Hellinger distance H²(P,Q) between two
// term distributions per Equation 1 of the paper:
//
//	H²(P,Q) = ½ Σ_{x ∈ P∪Q} (√P(x) − √Q(x))²
//
// The result is in [0,1]: 0 when P and Q are identical, 1 when their
// supports are disjoint (P ∩ Q = ∅). By convention — needed for IP-based
// URLs and empty sources discussed in Section VII-B — the distance between
// two empty distributions is 0 and between an empty and a non-empty
// distribution is 1.
//
// The accumulation walks both sorted term lists in merge order, so the
// result is bit-identical across runs.
func Hellinger(p, q Distribution) float64 {
	if p.Empty() && q.Empty() {
		return 0
	}
	if p.Empty() || q.Empty() {
		return 1
	}
	var sum float64
	i, j := 0, 0
	for i < len(p.terms) && j < len(q.terms) {
		switch {
		case p.terms[i] == q.terms[j]:
			d := math.Sqrt(p.probs[i]) - math.Sqrt(q.probs[j])
			sum += d * d
			i++
			j++
		case p.terms[i] < q.terms[j]:
			sum += p.probs[i] // (√p − 0)²
			i++
		default:
			sum += q.probs[j]
			j++
		}
	}
	for ; i < len(p.terms); i++ {
		sum += p.probs[i]
	}
	for ; j < len(q.terms); j++ {
		sum += q.probs[j]
	}
	h := sum / 2
	// Clamp floating-point drift so callers can rely on [0,1].
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// HellingerRanked is Hellinger for two distributions over one
// dictionary (Builder.BuildDictionary): the same merge, visiting the
// same terms in the same order and adding the same values, so the
// result is bit for bit Hellinger's on their Distributions. It compares
// ranks instead of strings and reads each term's √p from the
// distribution instead of taking it per pair.
func HellingerRanked(p, q Ranked) float64 {
	if len(p.ranks) == 0 && len(q.ranks) == 0 {
		return 0
	}
	if len(p.ranks) == 0 || len(q.ranks) == 0 {
		return 1
	}
	var sum float64
	i, j := 0, 0
	for i < len(p.ranks) && j < len(q.ranks) {
		switch {
		case p.ranks[i] == q.ranks[j]:
			d := p.roots[i] - q.roots[j]
			sum += d * d
			i++
			j++
		case p.ranks[i] < q.ranks[j]:
			sum += p.probs[i] // (√p − 0)²
			i++
		default:
			sum += q.probs[j]
			j++
		}
	}
	for ; i < len(p.ranks); i++ {
		sum += p.probs[i]
	}
	for ; j < len(q.ranks); j++ {
		sum += q.probs[j]
	}
	h := sum / 2
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// TotalVariation computes the total-variation distance
// ½ Σ |P(x) − Q(x)| ∈ [0,1]. It is used only by the distance-metric
// ablation (A2 in experiments.Index), not by the paper's feature set.
func TotalVariation(p, q Distribution) float64 {
	if p.Empty() && q.Empty() {
		return 0
	}
	if p.Empty() || q.Empty() {
		return 1
	}
	var sum float64
	i, j := 0, 0
	for i < len(p.terms) && j < len(q.terms) {
		switch {
		case p.terms[i] == q.terms[j]:
			sum += math.Abs(p.probs[i] - q.probs[j])
			i++
			j++
		case p.terms[i] < q.terms[j]:
			sum += p.probs[i]
			i++
		default:
			sum += q.probs[j]
			j++
		}
	}
	for ; i < len(p.terms); i++ {
		sum += p.probs[i]
	}
	for ; j < len(q.terms); j++ {
		sum += q.probs[j]
	}
	tv := sum / 2
	if tv > 1 {
		return 1
	}
	return tv
}

// BhattacharyyaCoefficient computes BC(P,Q) = Σ √(P(x)·Q(x)) ∈ [0,1];
// 1 − BC equals the squared Hellinger distance. Exposed for the
// distance-metric ablation.
func BhattacharyyaCoefficient(p, q Distribution) float64 {
	if p.Empty() && q.Empty() {
		return 1
	}
	if p.Empty() || q.Empty() {
		return 0
	}
	var sum float64
	i, j := 0, 0
	for i < len(p.terms) && j < len(q.terms) {
		switch {
		case p.terms[i] == q.terms[j]:
			sum += math.Sqrt(p.probs[i] * q.probs[j])
			i++
			j++
		case p.terms[i] < q.terms[j]:
			i++
		default:
			j++
		}
	}
	if sum > 1 {
		return 1
	}
	return sum
}
