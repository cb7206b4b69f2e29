package ml

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"knowphish/internal/dataset"
	"knowphish/internal/features"
	"knowphish/internal/webgen"
)

// tieHeavyMatrix draws the column kinds the detector's feature matrix
// mixes, all of which tie heavily: constant, binary, small-integer,
// sparse-mostly-zero and continuous. A fifth of the rows repeat an
// earlier row whole, so some nodes hold a single distinct value in every
// column.
func tieHeavyMatrix(rng *rand.Rand, n, dim int) ([][]float64, []int) {
	kinds := make([]int, dim)
	for f := range kinds {
		kinds[f] = rng.Intn(5)
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = rng.Intn(2)
		if i > 0 && rng.Intn(5) == 0 {
			x[i] = x[rng.Intn(i)]
			continue
		}
		row := make([]float64, dim)
		for f, kind := range kinds {
			switch kind {
			case 0:
				row[f] = 3
			case 1:
				row[f] = float64(rng.Intn(2))
			case 2:
				row[f] = float64(rng.Intn(5) + y[i])
			case 3:
				if rng.Intn(8) == 0 {
					row[f] = rng.Float64()
				}
			default:
				row[f] = rng.NormFloat64() + float64(y[i])
			}
		}
		x[i] = row
	}
	y[0], y[n-1] = 0, 1 // both classes, always
	return x, y
}

func saved(t testing.TB, m *GBM) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGBM trains x with both trainers and compares the saved models.
func checkGBM(t testing.TB, x [][]float64, y []int, cfg GBMConfig) {
	t.Helper()
	got, err := TrainGBM(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceTrainGBM(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := saved(t, got), saved(t, want); !bytes.Equal(g, w) {
		t.Fatalf("TrainGBM %+v differs from the reference (%d vs %d bytes)", cfg, len(g), len(w))
	}
}

// checkForest does the same for TrainForest.
func checkForest(t testing.TB, x [][]float64, y []int, cfg ForestConfig) {
	t.Helper()
	got, err := TrainForest(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceTrainForest(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TrainForest %+v differs from the reference", cfg)
	}
}

// checkTree fits one tree with both trainers and compares the nodes and
// the per-leaf sample lists, order included.
func checkTree(t testing.TB, x [][]float64, target []float64, idx, feats []int, cfg TreeConfig) {
	t.Helper()
	callerIdx := append([]int(nil), idx...)
	got, gotLeaves, err := FitTree(x, target, idx, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantLeaves, err := referenceFitTree(x, target, idx, feats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FitTree %+v: nodes differ from the reference\n got %+v\nwant %+v", cfg, got.Nodes, want.Nodes)
	}
	if !reflect.DeepEqual(gotLeaves, wantLeaves) {
		t.Fatalf("FitTree %+v: leaf sample lists differ from the reference\n got %v\nwant %v", cfg, gotLeaves, wantLeaves)
	}
	if !reflect.DeepEqual(idx, callerIdx) {
		t.Fatal("FitTree reordered the caller's idx")
	}
}

func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n, dim := 2+rng.Intn(90), 1+rng.Intn(12)
		x, y := tieHeavyMatrix(rng, n, dim)
		target := make([]float64, n)
		for i := range target {
			target[i] = float64(y[i]) - rng.Float64()
		}
		cfg := TreeConfig{MaxDepth: 1 + rng.Intn(5), MinLeaf: 1 + rng.Intn(6)}

		// A shuffled subsample over a shuffled candidate order, as a
		// boosting round with Subsample and FeatureFraction < 1 draws
		// them; then a with-replacement bootstrap, as TrainForest's.
		idx := sampleWithoutReplacement(rng, n, 1+rng.Intn(n))
		feats := sampleWithoutReplacement(rng, dim, 1+rng.Intn(dim))
		checkTree(t, x, target, idx, feats, cfg)
		boot := make([]int, n)
		for i := range boot {
			boot[i] = rng.Intn(n)
		}
		checkTree(t, x, target, boot, nil, cfg)

		checkGBM(t, x, y, GBMConfig{
			Trees: 8, MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Seed: int64(trial),
			Subsample: 0.5 + rng.Float64()/2, FeatureFraction: 0.3 + 0.7*rng.Float64(),
		})

		checkForest(t, x, y, ForestConfig{Trees: 5, MaxDepth: 2 + cfg.MaxDepth, MinLeaf: cfg.MinLeaf, Seed: int64(trial)})
	}
}

func TestFitMatchesReferenceDegenerate(t *testing.T) {
	target := []float64{0, 1, 0, 1, 1, 0, 0.5, 0.25}
	for _, tc := range []struct {
		name string
		x    [][]float64
	}{
		{"every column constant", [][]float64{{7, 1}, {7, 1}, {7, 1}, {7, 1}, {7, 1}, {7, 1}, {7, 1}, {7, 1}}},
		{"constant column beside a splitting one", [][]float64{{7, 0}, {7, 1}, {7, 0}, {7, 1}, {7, 1}, {7, 0}, {7, 2}, {7, 2}}},
		// After the first split on column 0 each child holds a single
		// distinct value of both columns.
		{"single distinct value per node", [][]float64{{0, 0}, {1, 5}, {0, 0}, {1, 5}, {1, 5}, {0, 0}, {0, 0}, {1, 5}}},
		{"negative zero ties with zero", [][]float64{{0, 1}, {math.Copysign(0, -1), 2}, {0, 3}, {1, 4}, {math.Copysign(0, -1), 5}, {-1, 6}, {0, 7}, {1, 8}}},
		// The midpoint of adjacent floats rounds onto one of them.
		{"adjacent floats", [][]float64{{1, 0}, {math.Nextafter(1, 2), 0}, {1, 0}, {math.Nextafter(1, 2), 0}, {math.Nextafter(1, 2), 0}, {1, 0}, {3, 0}, {3, 0}}},
		{"midpoint overflows", [][]float64{{math.MaxFloat64, 0}, {math.MaxFloat64 / 1.5, 1}, {math.MaxFloat64, 0}, {math.MaxFloat64 / 1.5, 1}, {math.MaxFloat64 / 1.5, 1}, {math.MaxFloat64, 0}, {1, 2}, {1, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for minLeaf := 1; minLeaf <= 3; minLeaf++ {
				checkTree(t, tc.x, target, allFeatures(len(tc.x)), nil, TreeConfig{MaxDepth: 4, MinLeaf: minLeaf})
				checkTree(t, tc.x, target, []int{7, 7, 2, 0, 5, 5, 5, 1, 3}, []int{1, 0}, TreeConfig{MaxDepth: 4, MinLeaf: minLeaf})
			}
		})
	}
}

// TestFitMatchesReferenceOnCorpus holds the trainer to the reference on
// the matrix every self-trained server fits: the Scale-20 corpus at
// app.TrainDemo's recipe.
func TestFitMatchesReferenceOnCorpus(t *testing.T) {
	corpus, err := dataset.Build(dataset.Config{Seed: 42, Scale: 20, World: webgen.Config{Seed: 43}, SkipLanguageTests: true})
	if err != nil {
		t.Fatal(err)
	}
	ext := features.Extractor{Rank: corpus.World.Ranking()}
	x := ext.ExtractBatch(append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...), 0)
	y := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	checkGBM(t, x, y, GBMConfig{Trees: 100, MaxDepth: 4, Subsample: 0.8, MinLeaf: 5, Seed: 44})
}

// FuzzTrainMatchesReference builds a small tie-heavy matrix and a
// trainer configuration from the fuzzer's bytes and compares both
// ensembles with the reference.
func FuzzTrainMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}, uint8(3), uint8(3), uint8(1), uint8(200), uint8(255))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(4), uint8(5), uint8(2), uint8(128), uint8(90))
	f.Add([]byte{255, 0, 255, 0, 255, 0, 7, 7, 7, 7}, uint8(1), uint8(2), uint8(6), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, cells []byte, dim, depth, minLeaf, subsample, featFrac uint8) {
		d := 1 + int(dim)%6
		n := len(cells) / d
		if n < 2 || n > 64 {
			t.Skip()
		}
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			x[i] = make([]float64, d)
			for j := range x[i] {
				// Sixteen distinct values at most: ties everywhere.
				x[i][j] = float64(cells[i*d+j]%16) / 4
			}
			y[i] = int(cells[i*d]>>4) & 1
		}
		y[0], y[n-1] = 0, 1
		cfg := GBMConfig{
			Trees: 4, MaxDepth: 1 + int(depth)%5, MinLeaf: 1 + int(minLeaf)%6, Seed: int64(dim),
			Subsample: float64(1+int(subsample)) / 256, FeatureFraction: float64(1+int(featFrac)) / 256,
		}
		checkGBM(t, x, y, cfg)
		checkForest(t, x, y, ForestConfig{Trees: 3, MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, FeatureFraction: cfg.FeatureFraction, Seed: cfg.Seed})
	})
}

// TestTrainersRejectNonFinite: a NaN has no place in a sorted column and
// an infinity none in a midpoint, so all three entry points refuse the
// matrix, naming the cell.
func TestTrainersRejectNonFinite(t *testing.T) {
	y := []int{0, 1, 0, 1}
	target := []float64{0, 1, 0, 1}
	idx := []int{0, 1, 2, 3}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, bad, 9}, {1, 1, 1}}
		_, gbmErr := TrainGBM(x, y, GBMConfig{Trees: 2})
		_, forestErr := TrainForest(x, y, ForestConfig{Trees: 2})
		_, _, treeErr := FitTree(x, target, idx, nil, TreeConfig{})
		for op, err := range map[string]error{"TrainGBM": gbmErr, "TrainForest": forestErr, "FitTree": treeErr} {
			want := fmt.Sprintf("ml: %s: row 2 column 1 is %v", op, bad)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with %v: error %v, want one containing %q", op, bad, err, want)
			}
		}
	}
}
