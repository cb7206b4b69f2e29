// Package drift watches live traffic for the silent failure mode of
// deployed detectors: the model stays frozen while phishing campaigns
// move, and accuracy decays with nothing in the request path failing.
// The paper argues its feature set "requires little maintenance" but
// still assumes periodic retraining (Sections VI-E, VII); this package
// supplies the trigger and the loop around it.
//
// Monitor compares a frozen baseline window of traffic against a
// sliding current window along three axes:
//
//   - score-distribution PSI: the population stability index of the
//     detector confidence over fixed [0,1] bins — the broadest signal
//     that the model is seeing different pages than it used to;
//   - per-feature population PSI: each monitored feature binned by its
//     baseline quantiles, exposing which inputs moved even when the
//     aggregate score has not (yet);
//   - phish-rate shift: the absolute change in the final-verdict
//     phishing rate, the operational symptom operators page on.
//
// Lifecycle (lifecycle.go) turns a flag into action: background retrain
// from the verdict store, challenger shadow-scoring, and a gated
// champion promotion through the model registry.
package drift

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"knowphish/internal/features"
)

// Defaults for Config zero values.
const (
	// DefaultWindow is the sliding current-window size in observations.
	DefaultWindow = 256
	// DefaultScoreBins is the score-histogram bin count over [0,1],
	// capped by the baseline size (see NewMonitor).
	DefaultScoreBins = 10
	// DefaultFeatureBins is the per-feature quantile bin count, capped
	// like DefaultScoreBins.
	DefaultFeatureBins = 10
	// DefaultScorePSI flags score-distribution drift. 0.2 is the
	// conventional "significant shift" PSI threshold.
	DefaultScorePSI = 0.2
	// DefaultFeaturePSI flags per-feature population drift; slightly
	// higher than the score threshold because single features are
	// noisier than the aggregate.
	DefaultFeaturePSI = 0.25
	// DefaultRateShift flags an absolute phish-rate change.
	DefaultRateShift = 0.15
)

// Config tunes a Monitor. The zero value is usable.
type Config struct {
	// Window is the sliding current-window size (0 → DefaultWindow).
	Window int
	// Baseline is how many observations freeze into the reference
	// window (0 → Window).
	Baseline int
	// ScorePSI flags drift when the score-distribution PSI reaches it
	// (0 → DefaultScorePSI, negative → disabled).
	ScorePSI float64
	// FeaturePSI flags drift when any feature's PSI reaches it
	// (0 → DefaultFeaturePSI, negative → disabled).
	FeaturePSI float64
	// RateShift flags drift when |phish rate − baseline rate| reaches it
	// (0 → DefaultRateShift, negative → disabled).
	RateShift float64
	// EvalEvery is how many observations pass between drift evaluations
	// once the window is full (0 → Window/8, min 1). Evaluation is
	// O(features × bins); spacing it keeps Observe cheap.
	EvalEvery int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Baseline <= 0 {
		c.Baseline = c.Window
	}
	if c.ScorePSI == 0 {
		c.ScorePSI = DefaultScorePSI
	}
	if c.FeaturePSI == 0 {
		c.FeaturePSI = DefaultFeaturePSI
	}
	if c.RateShift == 0 {
		c.RateShift = DefaultRateShift
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = c.Window / 8
		if c.EvalEvery < 1 {
			c.EvalEvery = 1
		}
	}
	return c
}

// Status is a drift snapshot — the gauges exported at /metrics.
type Status struct {
	// Observations counts everything Observe has seen since the last
	// Reset, baseline included.
	Observations int64 `json:"observations"`
	// BaselineFilled reports whether the reference window is frozen.
	BaselineFilled bool `json:"baseline_filled"`
	// WindowFilled reports whether the current window is full — PSI
	// values below are only meaningful once it is.
	WindowFilled bool `json:"window_filled"`
	// ScorePSI is the population stability index of the detector score
	// distribution, current window vs baseline.
	ScorePSI float64 `json:"score_psi"`
	// MaxFeaturePSI is the largest per-feature PSI observed, and
	// DriftedFeature names that feature.
	MaxFeaturePSI  float64 `json:"max_feature_psi"`
	DriftedFeature string  `json:"drifted_feature,omitempty"`
	// BaselinePhishRate and PhishRate are the final-verdict phishing
	// rates of the two windows; RateShift is |difference|.
	BaselinePhishRate float64 `json:"baseline_phish_rate"`
	PhishRate         float64 `json:"phish_rate"`
	RateShift         float64 `json:"rate_shift"`
	// Flagged latches once any monitor crosses its threshold, until
	// Reset. Reasons lists which ("score_psi", "feature_psi",
	// "phish_rate").
	Flagged bool     `json:"flagged"`
	Reasons []string `json:"reasons,omitempty"`
}

// Monitor is a sliding-window drift detector over live traffic. All
// methods are safe for concurrent use; Observe is O(features) amortized.
type Monitor struct {
	cfg Config
	// scoreBins and featureBins are the histogram resolutions: the
	// defaults, capped by the baseline size.
	scoreBins, featureBins int

	mu sync.Mutex

	// Baseline accumulation (raw until frozen).
	baseScores []float64
	baseVecs   [][]float64
	basePhish  int

	// Frozen baseline.
	frozen       bool
	baseHist     []float64   // score-bin proportions
	baseRate     float64     // phish rate
	baseVecCount int         // vectors the baseline histograms were built from
	featEdges    [][]float64 // per-feature quantile bin edges (len bins-1)
	baseFeatHist [][]float64 // per-feature bin proportions

	// Sliding current window: ring buffers plus incrementally maintained
	// bin counts, so Observe never rescans the window.
	ring       []obs
	ringAt     int
	ringFull   bool
	scoreCount []int
	featCount  [][]int
	phishCount int

	observations int64
	sinceEval    int
	status       Status
}

// obs is one windowed observation, pre-binned at admission.
type obs struct {
	scoreBin int
	phish    bool
	featBins []uint8 // nil when the observation carried no vector
}

// NewMonitor builds a drift monitor. The first cfg.Baseline
// observations freeze into the reference window; drift is evaluated
// against it afterwards.
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	// PSI on identical distributions still reads ≈ bins/observations of
	// pure multinomial noise; with small windows, ten bins would flag
	// steady traffic. Cap resolution so each bin expects ≥16 baseline
	// observations (floor of 4 bins to stay a distribution at all).
	res := max(cfg.Baseline/16, 4)
	return &Monitor{
		cfg:         cfg,
		scoreBins:   min(DefaultScoreBins, res),
		featureBins: min(DefaultFeatureBins, res),
	}
}

// Window returns the resolved sliding-window size — the traffic unit
// the lifecycle uses for observation-based cooldowns.
func (m *Monitor) Window() int { return m.cfg.Window }

// Observe feeds one scored page into the monitor: the detector
// confidence, the final phishing call, and (optionally, may be nil) the
// extracted feature vector for per-feature drift.
func (m *Monitor) Observe(score float64, phish bool, vec []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observations++
	if !m.frozen {
		m.baseScores = append(m.baseScores, score)
		if phish {
			m.basePhish++
		}
		if vec != nil {
			m.baseVecs = append(m.baseVecs, vec)
		}
		if len(m.baseScores) >= m.cfg.Baseline {
			m.freezeLocked()
		}
		return
	}
	m.admitLocked(score, phish, vec)
	m.sinceEval++
	if m.ringFull && m.sinceEval >= m.cfg.EvalEvery {
		m.sinceEval = 0
		m.evaluateLocked()
	}
}

// freezeLocked turns the accumulated baseline into histograms and bin
// edges, then discards the raw observations.
func (m *Monitor) freezeLocked() {
	n := len(m.baseScores)
	m.baseHist = make([]float64, m.scoreBins)
	for _, s := range m.baseScores {
		m.baseHist[m.scoreBin(s)]++
	}
	for i := range m.baseHist {
		m.baseHist[i] /= float64(n)
	}
	m.baseRate = float64(m.basePhish) / float64(n)

	// Per-feature quantile edges + baseline histograms, only for the
	// features the baseline actually saw vectors for.
	m.baseVecCount = len(m.baseVecs)
	if len(m.baseVecs) > 0 {
		dim := len(m.baseVecs[0])
		m.featEdges = make([][]float64, dim)
		m.baseFeatHist = make([][]float64, dim)
		col := make([]float64, 0, len(m.baseVecs))
		for f := 0; f < dim; f++ {
			col = col[:0]
			for _, v := range m.baseVecs {
				if f < len(v) {
					col = append(col, v[f])
				}
			}
			m.featEdges[f] = quantileEdges(col, m.featureBins)
			hist := make([]float64, m.featureBins)
			for _, x := range col {
				hist[binOf(x, m.featEdges[f])]++
			}
			for i := range hist {
				hist[i] /= float64(len(col))
			}
			m.baseFeatHist[f] = hist
		}
	}

	m.frozen = true
	m.baseScores, m.baseVecs = nil, nil
	m.ring = make([]obs, m.cfg.Window)
	m.ringAt, m.ringFull = 0, false
	m.scoreCount = make([]int, m.scoreBins)
	m.featCount = make([][]int, len(m.featEdges))
	for f := range m.featCount {
		m.featCount[f] = make([]int, m.featureBins)
	}
	m.phishCount = 0
	m.sinceEval = 0
	m.status.BaselineFilled = true
	m.status.BaselinePhishRate = m.baseRate
}

// admitLocked pushes one observation into the ring, retiring the one it
// replaces from the incremental counts.
func (m *Monitor) admitLocked(score float64, phish bool, vec []float64) {
	if m.ringFull {
		old := m.ring[m.ringAt]
		m.scoreCount[old.scoreBin]--
		if old.phish {
			m.phishCount--
		}
		for f, b := range old.featBins {
			m.featCount[f][b]--
		}
	}
	o := obs{scoreBin: m.scoreBin(score), phish: phish}
	if vec != nil && len(m.featEdges) > 0 {
		dim := len(m.featEdges)
		if dim > len(vec) {
			dim = len(vec)
		}
		o.featBins = make([]uint8, dim)
		for f := 0; f < dim; f++ {
			o.featBins[f] = uint8(binOf(vec[f], m.featEdges[f]))
		}
	}
	m.scoreCount[o.scoreBin]++
	if o.phish {
		m.phishCount++
	}
	for f, b := range o.featBins {
		m.featCount[f][b]++
	}
	m.ring[m.ringAt] = o
	m.ringAt++
	if m.ringAt == len(m.ring) {
		m.ringAt = 0
		m.ringFull = true
	}
}

// evaluateLocked recomputes the drift gauges over the full window.
func (m *Monitor) evaluateLocked() {
	n := len(m.ring)
	cur := make([]float64, m.scoreBins)
	for i, c := range m.scoreCount {
		cur[i] = float64(c) / float64(n)
	}
	m.status.WindowFilled = true
	m.status.ScorePSI = psi(m.baseHist, cur)
	m.status.PhishRate = float64(m.phishCount) / float64(n)
	m.status.RateShift = math.Abs(m.status.PhishRate - m.baseRate)

	m.status.MaxFeaturePSI = 0
	m.status.DriftedFeature = ""
	featureDrifted := false
	if len(m.featCount) > 0 {
		// Vector-less observations contribute nothing to feature counts;
		// normalize by the vectors actually windowed.
		names := features.Names()
		name := func(f int) string {
			if f < len(names) {
				return names[f]
			}
			return fmt.Sprintf("feature[%d]", f)
		}
		hist := make([]float64, m.featureBins)
		driftedPSI := 0.0
		for f := range m.featCount {
			total := 0
			for _, c := range m.featCount[f] {
				total += c
			}
			if total == 0 {
				continue
			}
			for i, c := range m.featCount[f] {
				hist[i] = float64(c) / float64(total)
			}
			v := psi(m.baseFeatHist[f], hist)
			if v > m.status.MaxFeaturePSI {
				m.status.MaxFeaturePSI = v
				if !featureDrifted {
					m.status.DriftedFeature = name(f)
				}
			}
			// Identical distributions still read a PSI of about
			// χ²₍bins−1₎ · (1/n_base + 1/n_cur) of pure sampling noise,
			// and the flag takes a max over every monitored feature — a
			// fixed threshold alone would fire on steady traffic. A
			// feature drifts only when its PSI clears both the configured
			// threshold and 5× its own noise floor, which converges to
			// the bare threshold as windows grow.
			floor := float64(m.featureBins-1) *
				(1/float64(m.baseVecCount) + 1/float64(total))
			if m.cfg.FeaturePSI > 0 && v >= m.cfg.FeaturePSI && v >= 5*floor && v > driftedPSI {
				featureDrifted = true
				driftedPSI = v
				m.status.DriftedFeature = name(f)
			}
		}
	}

	var reasons []string
	if m.cfg.ScorePSI > 0 && m.status.ScorePSI >= m.cfg.ScorePSI {
		reasons = append(reasons, "score_psi")
	}
	if featureDrifted {
		reasons = append(reasons, "feature_psi")
	}
	if m.cfg.RateShift > 0 && m.status.RateShift >= m.cfg.RateShift {
		reasons = append(reasons, "phish_rate")
	}
	if len(reasons) > 0 {
		// Latch: a flag stays up (and its first reasons with it) until
		// Reset, so a brief excursion cannot un-flag itself before the
		// lifecycle reacts.
		m.status.Flagged = true
		m.status.Reasons = reasons
	}
}

// Status returns the current drift gauges.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked()
}

func (m *Monitor) statusLocked() Status {
	st := m.status
	st.Observations = m.observations
	st.Reasons = append([]string(nil), m.status.Reasons...)
	return st
}

// Flagged reports whether drift is currently flagged.
func (m *Monitor) Flagged() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status.Flagged
}

// Reset discards the baseline, the window and the flag, restarting
// baseline accumulation — what a model promotion does, since the new
// champion defines a new score distribution.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frozen = false
	m.baseScores, m.baseVecs, m.basePhish = nil, nil, 0
	m.ring, m.scoreCount, m.featCount = nil, nil, nil
	m.featEdges, m.baseFeatHist, m.baseHist = nil, nil, nil
	m.ringAt, m.ringFull, m.phishCount, m.sinceEval = 0, false, 0, 0
	m.observations = 0
	m.status = Status{}
}

// scoreBin maps a confidence in [0,1] onto a fixed-width bin.
func (m *Monitor) scoreBin(s float64) int {
	b := int(s * float64(m.scoreBins))
	if b < 0 {
		b = 0
	}
	if b >= m.scoreBins {
		b = m.scoreBins - 1
	}
	return b
}

// binOf places x against sorted edges (len bins-1): bin i covers
// (edges[i-1], edges[i]]. SearchFloat64s returns the first edge >= x,
// which is exactly that bin index (x above every edge lands in the last
// bin); ties on repeated edges resolve to the first, identically for
// baseline and current windows.
func binOf(x float64, edges []float64) int {
	return sort.SearchFloat64s(edges, x)
}

// quantileEdges returns bins-1 interior quantile cut points of col.
// Degenerate columns (constant features) produce repeated edges, which
// binOf and psi tolerate: everything lands in one bin on both sides, so
// the feature reports zero drift until it actually moves.
func quantileEdges(col []float64, bins int) []float64 {
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	edges := make([]float64, bins-1)
	n := len(sorted)
	for i := 1; i < bins; i++ {
		idx := i * n / bins
		if idx >= n {
			idx = n - 1
		}
		edges[i-1] = sorted[idx]
	}
	return edges
}

// psi is the population stability index Σ (qᵢ−pᵢ)·ln(qᵢ/pᵢ) with
// epsilon smoothing for empty bins. Symmetric in the usual convention:
// p is the reference, q the current population.
func psi(p, q []float64) float64 {
	const eps = 1e-4
	sum := 0.0
	for i := range p {
		pi, qi := p[i]+eps, q[i]+eps
		sum += (qi - pi) * math.Log(qi/pi)
	}
	return sum
}
