package ocr

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"knowphish/internal/racecheck"
)

func TestZeroValuePerfectRecognition(t *testing.T) {
	var r Recognizer
	in := []string{"nova bank secure login", "welcome back"}
	got := r.Recognize(in)
	want := []string{"nova bank secure login", "welcome back"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Recognize = %v, want %v", got, want)
	}
}

func TestDeterministic(t *testing.T) {
	r := Default()
	in := []string{"nova bank secure login verify account password"}
	a := r.Recognize(in)
	b := r.Recognize(in)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSeedChangesNoise(t *testing.T) {
	in := []string{"alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima"}
	r1 := &Recognizer{DropRate: 0.5, Seed: 1}
	r2 := &Recognizer{DropRate: 0.5, Seed: 999}
	a := strings.Join(r1.Recognize(in), " ")
	b := strings.Join(r2.Recognize(in), " ")
	if a == b {
		t.Log("note: two seeds produced identical output (possible, but suspicious)")
	}
}

func TestDropRateOne(t *testing.T) {
	r := &Recognizer{DropRate: 1}
	if got := r.Recognize([]string{"everything vanishes"}); got != nil {
		t.Errorf("DropRate=1 must drop all words, got %v", got)
	}
}

func TestConfusionDestroysTerms(t *testing.T) {
	r := &Recognizer{ConfuseRate: 1, Seed: 3}
	got := r.Recognize([]string{"login"})
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if got[0] == "login" {
		t.Errorf("ConfuseRate=1 must alter a confusable word, got %q", got[0])
	}
	// The classic confusions replace letters with digits.
	if !strings.ContainsAny(got[0], "0123456789") {
		t.Errorf("confused word %q has no digit substitution", got[0])
	}
}

func TestEmptyInput(t *testing.T) {
	r := Default()
	if got := r.Recognize(nil); got != nil {
		t.Errorf("nil input: got %v", got)
	}
	if got := r.Recognize([]string{""}); got != nil {
		t.Errorf("blank line: got %v", got)
	}
}

func TestDefaultRatesModerate(t *testing.T) {
	r := Default()
	// A long input must survive mostly intact.
	words := strings.Fields(strings.Repeat("alpha bravo charlie delta echo ", 20))
	in := []string{strings.Join(words, " ")}
	out := strings.Fields(strings.Join(r.Recognize(in), " "))
	ratio := float64(len(out)) / float64(len(words))
	if ratio < 0.7 {
		t.Errorf("default OCR keeps only %.0f%% of words", ratio*100)
	}
}

// referenceRecognize is Recognize as it was when every word built its own
// generator from fnv.New64a and rand.NewSource; the one reseeded generator
// must reproduce its output exactly.
func referenceRecognize(r *Recognizer, lines []string) []string {
	if len(lines) == 0 {
		return nil
	}
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		words := strings.Fields(line)
		kept := make([]string, 0, len(words))
		for _, word := range words {
			h := fnv.New64a()
			_, _ = h.Write([]byte(word))
			rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ r.Seed))
			if rng.Float64() < r.DropRate {
				continue
			}
			if rng.Float64() < r.ConfuseRate {
				word = confuse(rng, word)
			}
			kept = append(kept, word)
		}
		if len(kept) > 0 {
			out = append(out, strings.Join(kept, " "))
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func TestRecognizeMatchesReference(t *testing.T) {
	vocab := strings.Fields("nova bank secure login verify account password Sign In PayPal " +
		"zebra glass bills 0ffice é ß 登录 a x")
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 50; seed++ {
		r := &Recognizer{DropRate: 0.3, ConfuseRate: 0.5, Seed: seed*7919 - 100}
		if seed%5 == 0 {
			r = Default()
			r.Seed = seed
		}
		for n := 0; n < 20; n++ {
			lines := make([]string, rng.Intn(4))
			for i := range lines {
				words := make([]string, rng.Intn(30))
				for j := range words {
					words[j] = vocab[rng.Intn(len(vocab))]
				}
				lines[i] = strings.Join(words, " ")
			}
			if got, want := r.Recognize(lines), referenceRecognize(r, lines); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, lines %q: Recognize = %q, reference %q", r.Seed, lines, got, want)
			}
		}
	}
}

// TestRecognizeAllocsIndependentOfWords pins one generator per call: a
// 100-word line allocates what a 10-word line does. Confusion is off,
// since each confused word owns its new spelling.
func TestRecognizeAllocsIndependentOfWords(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("-race instrumentation allocates")
	}
	r := &Recognizer{DropRate: Default().DropRate, Seed: 1}
	allocs := func(words int) float64 {
		line := []string{strings.TrimSpace(strings.Repeat("nova bank secure login verify ", words/5))}
		return testing.AllocsPerRun(50, func() { r.Recognize(line) })
	}
	short, long := allocs(10), allocs(100)
	if short != long {
		t.Errorf("10 words: %v allocs, 100 words: %v; want equal", short, long)
	} else {
		t.Logf("%v allocs per Recognize at 10 and 100 words", short)
	}
}
