package dataset

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"knowphish/internal/webgen"
)

var sharedSmall *Corpus

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	if sharedSmall == nil {
		c, err := Build(Config{
			Seed:  11,
			Scale: 40,
			World: webgen.Config{Seed: 12, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		sharedSmall = c
	}
	return sharedSmall
}

func TestBuildCampaignSizes(t *testing.T) {
	c := smallCorpus(t)
	// Scale 40 ⇒ phishTrain ≈ 1036/40 = 25, legTrain ≈ 4531/40 = 113.
	if got := c.PhishTrain.Clean(); got != 25 {
		t.Errorf("phishTrain clean = %d, want 25", got)
	}
	if got := c.LegTrain.Clean(); got != 113 {
		t.Errorf("legTrain clean = %d, want 113", got)
	}
	if got := c.PhishTest.Clean(); got != 30 {
		t.Errorf("phishTest clean = %d, want 30", got)
	}
	if got := c.PhishBrand.Clean(); got != 15 {
		t.Errorf("phishBrand clean = %d, want 15", got)
	}
	if got := len(c.LangTests); got != 6 {
		t.Fatalf("language tests = %d, want 6", got)
	}
	if got := c.LangTests[webgen.English].Clean(); got != 2500 {
		t.Errorf("English = %d, want 2500", got)
	}
	if got := c.LangTests[webgen.French].Clean(); got != 250 {
		t.Errorf("French = %d, want 250", got)
	}
	// Initial ≥ clean for campaigns with a cleaning pass.
	if c.PhishTrain.Initial < c.PhishTrain.Clean() {
		t.Error("initial < clean")
	}
}

func TestCampaignLabels(t *testing.T) {
	c := smallCorpus(t)
	for _, l := range c.PhishTrain.Labels() {
		if l != 1 {
			t.Fatal("phish campaign contains non-phish label")
		}
	}
	for _, l := range c.LegTrain.Labels() {
		if l != 0 {
			t.Fatal("leg campaign contains phish label")
		}
	}
	if len(c.PhishTrain.Snapshots()) != c.PhishTrain.Clean() {
		t.Error("Snapshots length mismatch")
	}
}

func TestPhishBrandTargetsRecorded(t *testing.T) {
	c := smallCorpus(t)
	noHint := 0
	for _, ex := range c.PhishBrand.Examples {
		if ex.TargetMLD == "" || ex.TargetRDN == "" {
			t.Error("phishBrand example missing target ground truth")
		}
		if ex.NoHint {
			noHint++
			// No-hint pages must not mention their target anywhere.
			if containsFold(ex.Snapshot.Text, ex.TargetMLD) ||
				containsFold(ex.Snapshot.Title, ex.TargetMLD) {
				t.Errorf("no-hint page still mentions target %s", ex.TargetMLD)
			}
			for _, l := range ex.Snapshot.HREFLinks {
				if containsFold(l, ex.TargetMLD) {
					t.Errorf("no-hint page links target: %s", l)
				}
			}
		}
	}
	if noHint == 0 {
		t.Error("phishBrand has no no-hint (unknown target) pages")
	}
}

func TestLanguageTagging(t *testing.T) {
	c := smallCorpus(t)
	for lang, camp := range c.LangTests {
		for _, ex := range camp.Examples {
			if ex.Lang != lang {
				t.Fatalf("%s campaign contains %s example", lang, ex.Lang)
			}
		}
	}
}

func TestEngineIndexed(t *testing.T) {
	c := smallCorpus(t)
	// All brands plus (most) legitimate pages must be indexed.
	if c.Engine.Len() < len(c.World.Brands) {
		t.Errorf("engine has %d docs, fewer than %d brands", c.Engine.Len(), len(c.World.Brands))
	}
	minLegit := c.LegTrain.Clean()
	if c.Engine.Len() < minLegit {
		t.Errorf("engine has %d docs, expected at least legTrain size %d", c.Engine.Len(), minLegit)
	}
}

// TestBuildDeterministic: a Config decides the corpus byte for byte —
// every campaign and the saved index — run to run and whatever the core
// count, i.e. the parallel legitimate-campaign build preserves draw order.
func TestBuildDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, Scale: 100, World: webgen.Config{Seed: 6, Brands: 30, RankedGenerics: 40, VocabularyWords: 80}}
	build := func(procs int) (*Corpus, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var index bytes.Buffer
		if err := c.Engine.Save(&index); err != nil {
			t.Fatal(err)
		}
		return c, index.Bytes()
	}
	c1, index1 := build(1)
	if n := c1.LangTests[webgen.English].Clean(); n <= 2*legChunk {
		t.Fatalf("English campaign has %d pages: too few to span several chunks of %d", n, legChunk)
	}
	for _, procs := range []int{1, 4} {
		c2, index2 := build(procs)
		if !bytes.Equal(index1, index2) {
			t.Errorf("GOMAXPROCS 1 then %d: saved indexes differ (%d vs %d bytes)", procs, len(index1), len(index2))
		}
		for _, pair := range [][2]*Campaign{
			{c1.PhishTrain, c2.PhishTrain}, {c1.LegTrain, c2.LegTrain}, {c1.PhishTest, c2.PhishTest},
			{c1.PhishBrand, c2.PhishBrand}, {c1.LangTests[webgen.English], c2.LangTests[webgen.English]},
			{c1.LangTests[webgen.Spanish], c2.LangTests[webgen.Spanish]},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("GOMAXPROCS 1 then %d: campaign %s differs", procs, pair[0].Name)
			}
		}
	}
}

func TestSkipLanguageTests(t *testing.T) {
	c, err := Build(Config{Seed: 9, Scale: 100, World: webgen.Config{Seed: 10, Brands: 30, RankedGenerics: 40, VocabularyWords: 80}, SkipLanguageTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.LangTests) != 1 {
		t.Errorf("LangTests = %d, want 1 (English only)", len(c.LangTests))
	}
}

func TestNoisyCaptureAndCleaning(t *testing.T) {
	c := smallCorpus(t)
	rng := rand.New(rand.NewSource(20))
	raw := c.NoisyCapture(rng, 200)
	if len(raw) < 150 {
		t.Fatalf("capture = %d pages", len(raw))
	}
	kinds := map[string]int{}
	for _, ex := range raw {
		kinds[ex.Kind]++
	}
	if kinds["phish"] == 0 || kinds["parked"]+kinds["unavailable"] == 0 {
		t.Errorf("capture lacks junk mixture: %v", kinds)
	}
	clean := CleanCapture(raw)
	if len(clean) >= len(raw) {
		t.Error("cleaning removed nothing")
	}
	for _, ex := range clean {
		if ex.Kind != "phish" {
			t.Errorf("cleaning kept %s", ex.Kind)
		}
	}
}

func TestScaleOneSizesMatchTableV(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 corpus is large")
	}
	// Only verify the arithmetic, not an actual build: paper sizes over
	// scale 1 must match Table V exactly.
	if paperSizes.phishTrainClean != 1036 || paperSizes.phishTestClean != 1216 ||
		paperSizes.phishBrand != 600 || paperSizes.legTrainClean != 4531 ||
		paperSizes.english != 100000 || paperSizes.otherLang != 10000 {
		t.Error("paper sizes drifted from Table V")
	}
}
