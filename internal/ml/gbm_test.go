package ml

import (
	"math"
	"math/rand"
	"testing"
)

// makeBlobs builds a two-class dataset: class 0 centered at -1, class 1 at
// +1 in every dimension, with unit noise.
func makeBlobs(n, dim int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		label := i % 2
		row := make([]float64, dim)
		center := -1.0
		if label == 1 {
			center = 1.0
		}
		for d := 0; d < dim; d++ {
			row[d] = center + rng.NormFloat64()
		}
		x[i] = row
		y[i] = label
	}
	return x, y
}

func TestTrainGBMSeparatesBlobs(t *testing.T) {
	x, y := makeBlobs(400, 4, 11)
	m, err := TrainGBM(x, y, GBMConfig{Trees: 40, Seed: 1})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	testX, testY := makeBlobs(400, 4, 99)
	c := Evaluate(m.ScoreAll(testX), testY, 0.5)
	if acc := c.Accuracy(); acc < 0.9 {
		t.Errorf("holdout accuracy = %v, want >= 0.9 (%s)", acc, c)
	}
	if auc := AUC(m.ScoreAll(testX), testY); auc < 0.95 {
		t.Errorf("holdout AUC = %v, want >= 0.95", auc)
	}
}

func TestGBMScoreInUnitInterval(t *testing.T) {
	x, y := makeBlobs(200, 3, 5)
	m, err := TrainGBM(x, y, GBMConfig{Trees: 30, Seed: 2})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	rng := rand.New(rand.NewSource(0))
	for i := 0; i < 500; i++ {
		probe := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		s := m.Score(probe)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("Score = %v, outside [0,1]", s)
		}
	}
}

func TestGBMDeterministicForSeed(t *testing.T) {
	x, y := makeBlobs(200, 3, 7)
	m1, err := TrainGBM(x, y, GBMConfig{Trees: 20, Seed: 42})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	m2, err := TrainGBM(x, y, GBMConfig{Trees: 20, Seed: 42})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	probe := []float64{0.3, -0.2, 0.5}
	if a, b := m1.Score(probe), m2.Score(probe); a != b {
		t.Errorf("same seed, different scores: %v vs %v", a, b)
	}
	m3, err := TrainGBM(x, y, GBMConfig{Trees: 20, Seed: 43})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	if a, b := m1.Score(probe), m3.Score(probe); a == b {
		t.Logf("note: different seeds produced identical scores (possible but unlikely): %v", a)
	}
}

func TestGBMPredictThreshold(t *testing.T) {
	x, y := makeBlobs(300, 2, 3)
	m, err := TrainGBM(x, y, GBMConfig{Trees: 30, Seed: 3})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	probe := []float64{1, 1}
	s := m.Score(probe)
	if s >= 0.99 {
		t.Skip("degenerate: score too close to 1 for threshold test")
	}
	// Predict must agree with a manual threshold comparison.
	for _, thr := range []float64{0.1, 0.5, 0.7, 0.99} {
		want := 0
		if s >= thr {
			want = 1
		}
		if got := m.Predict(probe, thr); got != want {
			t.Errorf("Predict(thr=%v) = %d, want %d (score %v)", thr, got, want, s)
		}
	}
}

func TestGBMTrainErrors(t *testing.T) {
	if _, err := TrainGBM(nil, nil, GBMConfig{}); err == nil {
		t.Error("empty training set: want error")
	}
	if _, err := TrainGBM([][]float64{{1}}, []int{1, 0}, GBMConfig{}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := TrainGBM([][]float64{{1}, {2}}, []int{1, 1}, GBMConfig{}); err == nil {
		t.Error("single class: want error")
	}
	if _, err := TrainGBM([][]float64{{1}, {2}}, []int{1, 2}, GBMConfig{}); err == nil {
		t.Error("bad label: want error")
	}
	if _, err := TrainGBM([][]float64{{1}, {2, 3}}, []int{0, 1}, GBMConfig{}); err == nil {
		t.Error("ragged rows: want error")
	}
}

func TestGBMFeatureImportance(t *testing.T) {
	// Feature 0 carries all the signal; importance must concentrate there.
	rng := rand.New(rand.NewSource(10))
	n := 400
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		label := i % 2
		sig := -1.0
		if label == 1 {
			sig = 1.0
		}
		x[i] = []float64{sig + rng.NormFloat64()*0.3, rng.NormFloat64(), rng.NormFloat64()}
		y[i] = label
	}
	m, err := TrainGBM(x, y, GBMConfig{Trees: 30, Seed: 5})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	imp := m.FeatureImportance()
	if len(imp) != 3 {
		t.Fatalf("importance length = %d, want 3", len(imp))
	}
	if imp[0] <= imp[1] || imp[0] <= imp[2] {
		t.Errorf("importance = %v, want feature 0 dominant", imp)
	}
}

func TestGBMSubsampleStochastic(t *testing.T) {
	x, y := makeBlobs(300, 3, 20)
	m, err := TrainGBM(x, y, GBMConfig{Trees: 25, Subsample: 0.5, Seed: 6})
	if err != nil {
		t.Fatalf("TrainGBM with subsample: %v", err)
	}
	testX, testY := makeBlobs(200, 3, 77)
	if auc := AUC(m.ScoreAll(testX), testY); auc < 0.9 {
		t.Errorf("stochastic GBM AUC = %v, want >= 0.9", auc)
	}
}

func TestGBMFeatureFraction(t *testing.T) {
	x, y := makeBlobs(300, 6, 21)
	m, err := TrainGBM(x, y, GBMConfig{Trees: 30, FeatureFraction: 0.5, Seed: 7})
	if err != nil {
		t.Fatalf("TrainGBM with feature fraction: %v", err)
	}
	testX, testY := makeBlobs(200, 6, 78)
	if auc := AUC(m.ScoreAll(testX), testY); auc < 0.9 {
		t.Errorf("column-sampled GBM AUC = %v, want >= 0.9", auc)
	}
}

func TestGBMInitScoreIsLogOdds(t *testing.T) {
	// 3 positives of 4 ⇒ F0 = ln(0.75/0.25) = ln 3.
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{1, 1, 1, 0}
	m, err := TrainGBM(x, y, GBMConfig{Trees: 1, MinLeaf: 1, Seed: 8})
	if err != nil {
		t.Fatalf("TrainGBM: %v", err)
	}
	if want := math.Log(3); math.Abs(m.InitScore-want) > 1e-12 {
		t.Errorf("InitScore = %v, want %v", m.InitScore, want)
	}
}

func TestSigmoidBounds(t *testing.T) {
	if sigmoid(1000) != 1 || sigmoid(-1000) != 0 {
		t.Error("sigmoid overflow guard failed")
	}
	if math.Abs(sigmoid(0)-0.5) > 1e-12 {
		t.Error("sigmoid(0) != 0.5")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(50)
		k := 1 + rng.Intn(n)
		got := sampleWithoutReplacement(rng, n, k)
		if len(got) != k {
			t.Fatalf("len = %d, want %d", len(got), k)
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("value %d outside [0,%d)", v, n)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d", v)
			}
			seen[v] = true
		}
	}
}
