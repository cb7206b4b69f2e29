package drift

import (
	"math/rand"
	"testing"

	"knowphish/internal/features"
)

// axisCfg disables everything except the axes under test. The window is
// large enough that multinomial PSI noise on identical distributions
// stays well under the thresholds.
func axisCfg(score, feature, rate float64) Config {
	return Config{
		Window:     128,
		Baseline:   128,
		ScorePSI:   score,
		FeaturePSI: feature,
		RateShift:  rate,
		EvalEvery:  1,
	}
}

func feedN(m *Monitor, n int, score func(i int) float64, phish func(i int) bool, vec func(i int) []float64) {
	for i := 0; i < n; i++ {
		var v []float64
		if vec != nil {
			v = vec(i)
		}
		m.Observe(score(i), phish(i), v)
	}
}

func TestMonitorStableTrafficDoesNotFlag(t *testing.T) {
	m := NewMonitor(axisCfg(DefaultScorePSI, DefaultFeaturePSI, DefaultRateShift))
	rng := rand.New(rand.NewSource(1))
	score := func(int) float64 { return 0.1 + 0.3*rng.Float64() }
	phish := func(i int) bool { return i%10 == 0 }
	vec := func(int) []float64 { return []float64{rng.Float64(), 5 + rng.Float64()} }
	feedN(m, 320, score, phish, vec)
	st := m.Status()
	if !st.BaselineFilled || !st.WindowFilled {
		t.Fatalf("windows not filled: %+v", st)
	}
	if st.Flagged {
		t.Fatalf("stable traffic flagged: %+v", st)
	}
	if st.Observations != 320 {
		t.Errorf("observations = %d", st.Observations)
	}
}

func TestMonitorFlagsScoreDrift(t *testing.T) {
	m := NewMonitor(axisCfg(DefaultScorePSI, -1, -1))
	feedN(m, 128, func(int) float64 { return 0.15 }, func(int) bool { return false }, nil)
	if m.Flagged() {
		t.Fatal("flagged before any shift")
	}
	// The score distribution jumps; the phish rate does not (rate axis
	// disabled anyway).
	feedN(m, 160, func(int) float64 { return 0.92 }, func(int) bool { return false }, nil)
	st := m.Status()
	if !st.Flagged {
		t.Fatalf("score shift not flagged: %+v", st)
	}
	if len(st.Reasons) != 1 || st.Reasons[0] != "score_psi" {
		t.Fatalf("reasons = %v, want [score_psi]", st.Reasons)
	}
	if st.ScorePSI < DefaultScorePSI {
		t.Errorf("ScorePSI = %v below threshold yet flagged", st.ScorePSI)
	}
}

func TestMonitorFlagsPhishRateShift(t *testing.T) {
	m := NewMonitor(axisCfg(-1, -1, DefaultRateShift))
	feedN(m, 128, func(int) float64 { return 0.5 }, func(i int) bool { return i%20 == 0 }, nil)
	feedN(m, 160, func(int) float64 { return 0.5 }, func(int) bool { return true }, nil)
	st := m.Status()
	if !st.Flagged {
		t.Fatalf("rate shift not flagged: %+v", st)
	}
	if len(st.Reasons) != 1 || st.Reasons[0] != "phish_rate" {
		t.Fatalf("reasons = %v, want [phish_rate]", st.Reasons)
	}
	if st.RateShift < DefaultRateShift {
		t.Errorf("RateShift = %v", st.RateShift)
	}
}

func TestMonitorFlagsFeatureDrift(t *testing.T) {
	m := NewMonitor(axisCfg(-1, DefaultFeaturePSI, -1))
	rng := rand.New(rand.NewSource(2))
	// Feature 0 stays put; feature 1 moves an order of magnitude.
	baseVec := func(int) []float64 { return []float64{rng.Float64(), 1 + rng.Float64()} }
	movedVec := func(int) []float64 { return []float64{rng.Float64(), 30 + rng.Float64()} }
	score := func(int) float64 { return 0.4 }
	phish := func(int) bool { return false }
	feedN(m, 128, score, phish, baseVec)
	feedN(m, 160, score, phish, movedVec)
	st := m.Status()
	if !st.Flagged {
		t.Fatalf("feature shift not flagged: %+v", st)
	}
	if len(st.Reasons) != 1 || st.Reasons[0] != "feature_psi" {
		t.Fatalf("reasons = %v, want [feature_psi]", st.Reasons)
	}
	if want := features.Names()[1]; st.DriftedFeature != want {
		t.Errorf("DriftedFeature = %q, want %q", st.DriftedFeature, want)
	}
}

// TestMonitorVectorlessObservations covers mixed traffic: observations
// without vectors (cache rehydrations, v1 adapters) still count for the
// score and rate axes and must not corrupt the feature counts.
func TestMonitorVectorlessObservations(t *testing.T) {
	m := NewMonitor(axisCfg(-1, DefaultFeaturePSI, -1))
	rng := rand.New(rand.NewSource(3))
	vec := func(int) []float64 { return []float64{rng.Float64()} }
	feedN(m, 128, func(int) float64 { return 0.4 }, func(int) bool { return false }, vec)
	// Current window: half with vectors (same distribution), half
	// without.
	for i := 0; i < 256; i++ {
		if i%2 == 0 {
			m.Observe(0.4, false, vec(i))
		} else {
			m.Observe(0.4, false, nil)
		}
	}
	if st := m.Status(); st.Flagged {
		t.Fatalf("vectorless traffic flagged feature drift: %+v", st)
	}
}

// TestMonitorFlagLatches: a flag stays up, with the reasons that raised
// it, after the traffic that raised it is gone — a brief excursion
// cannot un-flag itself before the lifecycle reacts.
func TestMonitorFlagLatches(t *testing.T) {
	m := NewMonitor(axisCfg(DefaultScorePSI, -1, -1))
	feedN(m, 128, func(int) float64 { return 0.1 }, func(int) bool { return false }, nil)
	feedN(m, 160, func(int) float64 { return 0.9 }, func(int) bool { return false }, nil)
	if !m.Flagged() {
		t.Fatal("score shift not flagged")
	}
	// The window refills with baseline traffic: the PSI falls back, the
	// flag does not.
	feedN(m, 400, func(int) float64 { return 0.1 }, func(int) bool { return false }, nil)
	st := m.Status()
	if st.ScorePSI >= DefaultScorePSI {
		t.Fatalf("window did not return to the baseline: %+v", st)
	}
	if !st.Flagged || len(st.Reasons) != 1 || st.Reasons[0] != "score_psi" {
		t.Fatalf("flag did not latch with its reasons: %+v", st)
	}
}

func TestMonitorReset(t *testing.T) {
	m := NewMonitor(axisCfg(DefaultScorePSI, -1, -1))
	feedN(m, 128, func(int) float64 { return 0.1 }, func(int) bool { return false }, nil)
	feedN(m, 160, func(int) float64 { return 0.9 }, func(int) bool { return false }, nil)
	if !m.Flagged() {
		t.Fatal("not flagged before reset")
	}
	m.Reset()
	st := m.Status()
	if st.Flagged || st.BaselineFilled || st.Observations != 0 {
		t.Fatalf("reset left state: %+v", st)
	}
	// The monitor re-baselines on the new distribution: the traffic that
	// used to be drift is now the reference and does not flag.
	feedN(m, 400, func(int) float64 { return 0.9 }, func(int) bool { return false }, nil)
	if m.Flagged() {
		t.Fatal("re-baselined traffic flagged")
	}
}

func TestPSIProperties(t *testing.T) {
	same := []float64{0.25, 0.25, 0.25, 0.25}
	if v := psi(same, same); v != 0 {
		t.Errorf("psi(p,p) = %v, want 0", v)
	}
	moved := []float64{0.7, 0.1, 0.1, 0.1}
	if v := psi(same, moved); v <= 0 {
		t.Errorf("psi of shifted distribution = %v, want > 0", v)
	}
	// Empty bins must not produce NaN/Inf.
	empty := []float64{1, 0, 0, 0}
	v := psi(same, empty)
	if v <= 0 || v != v {
		t.Errorf("psi with empty bins = %v", v)
	}
}
