// Package ocr simulates optical character recognition over the synthetic
// screenshot layer. The paper applies OCR to webpage screenshots to
// produce the Timage term set used as a fallback keyterm source for
// image-based pages (Sections III-B, V-A), running tesseract on real
// screenshots. This package is a deterministic noise simulator instead:
// it reproduces OCR's character confusions, which destroy terms, and its
// dropped words, so that experiments are repeatable. It models none of
// OCR's cost.
package ocr

import (
	"math/rand"
	"strings"
)

// Recognizer simulates OCR. The zero value recognizes perfectly; use
// Default for realistic noise.
type Recognizer struct {
	// DropRate is the probability a word is missed entirely.
	DropRate float64
	// ConfuseRate is the per-word probability of a character confusion
	// (l→1, o→0, ...), which splits or destroys the extracted term.
	ConfuseRate float64
	// Seed decorrelates noise across recognizer instances while keeping
	// each (seed, input) pair deterministic.
	Seed int64
}

// Default returns a recognizer with noise rates typical of OCR on web
// screenshots.
func Default() *Recognizer {
	return &Recognizer{DropRate: 0.08, ConfuseRate: 0.10, Seed: 1}
}

// confusions maps characters to their classic OCR misreads.
var confusions = map[byte]byte{
	'l': '1', 'i': '1', 'o': '0', 'e': '3', 's': '5', 'b': '8', 'g': '9', 'z': '2',
}

// Recognize returns the text OCR would extract from the screenshot lines.
// Deterministic for a given (Seed, input) pair.
func (r *Recognizer) Recognize(lines []string) []string {
	if len(lines) == 0 {
		return nil
	}
	out := make([]string, 0, len(lines))
	rng := rand.New(rand.NewSource(0)) // reseeded per word
	for _, line := range lines {
		words := strings.Fields(line)
		kept := make([]string, 0, len(words))
		for _, word := range words {
			rng.Seed(r.wordSeed(word))
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

// wordSeed derives a word's noise seed from its FNV-1a hash and r.Seed.
func (r *Recognizer) wordSeed(word string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(word); i++ {
		h = (h ^ uint64(word[i])) * 1099511628211
	}
	return int64(h) ^ r.Seed
}

func confuse(rng *rand.Rand, word string) string {
	b := []byte(strings.ToLower(word))
	// Try a handful of positions for a confusable character.
	for attempt := 0; attempt < 3; attempt++ {
		i := rng.Intn(len(b))
		if repl, ok := confusions[b[i]]; ok {
			b[i] = repl
			break
		}
	}
	return string(b)
}
