// Package baselines implements the three archetypes of prior work the
// paper compares against in Table X; the published systems cannot be
// rerun, so each is re-implemented from its paper:
//
//   - Cantina (Zhang et al., WWW'07): TF-IDF keyword signature + search
//     engine membership test. Content-based, language-dependent, no
//     learning.
//   - Ma et al. (KDD'09): URL-lexical bag-of-words with online logistic
//     regression. URL-only, needs many training URLs.
//   - Whittaker et al. (NDSS'10): large static bag-of-words over page +
//     URL with a learned classifier — brand-dependent, hungry for
//     training data.
//
// All three expose the same Score(snapshot) ∈ [0,1] contract as the
// paper's system so that one evaluation harness drives Table X.
package baselines

import (
	"fmt"
	"strings"

	"knowphish/internal/ml"
	"knowphish/internal/search"
	"knowphish/internal/terms"
	"knowphish/internal/webpage"
)

// Classifier is the common scoring contract.
type Classifier interface {
	// Name identifies the baseline in tables.
	Name() string
	// Score returns phishing confidence in [0,1].
	Score(s *webpage.Snapshot) float64
}

// ---------------------------------------------------------------------
// Cantina-style baseline.

// Cantina classifies by querying a search engine with the page's top
// TF-IDF terms: if the page's own domain comes back, it is legitimate.
// IDF comes from the engine's corpus statistics.
type Cantina struct {
	// Engine is the search engine (with document frequencies).
	Engine *search.Engine
	// TopTerms is the signature length (paper's Cantina uses 5).
	TopTerms int
	// TopK is how many results to scan for the page's domain.
	TopK int
}

// NewCantina returns a Cantina baseline with the original's parameters.
func NewCantina(e *search.Engine) *Cantina {
	return &Cantina{Engine: e, TopTerms: 5, TopK: 30}
}

// Name implements Classifier.
func (c *Cantina) Name() string { return "Cantina (TF-IDF + search)" }

// Score implements Classifier: 1 when the lexical signature does not
// retrieve the page's own RDN, 0 when it does. A soft middle value covers
// pages with no usable signature.
func (c *Cantina) Score(s *webpage.Snapshot) float64 {
	a := webpage.Analyze(s)
	sig := c.signature(a)
	if len(sig) == 0 {
		return 0.5 // no text to judge: Cantina cannot decide
	}
	results := c.Engine.Query(sig, c.TopK)
	if search.ContainsRDN(results, a.Land.RDN) || search.ContainsRDN(results, a.Start.RDN) {
		return 0
	}
	return 1
}

// signature selects the page's TopTerms terms by TF-IDF against the
// engine's corpus.
func (c *Cantina) signature(a *webpage.Analysis) []string {
	text := a.Dist(webpage.DistText)
	title := a.Dist(webpage.DistTitle)
	if text.Empty() && title.Empty() {
		return nil
	}
	type scored struct {
		t string
		v float64
	}
	var all []scored
	seen := map[string]struct{}{}
	for _, d := range []terms.Distribution{text, title} {
		for _, t := range d.Terms() {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			tf := text.P(t) + title.P(t)
			idf := c.Engine.IDF(t)
			all = append(all, scored{t, tf * idf})
		}
	}
	// Highest TF-IDF first, lexical tie-break.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].v > all[j-1].v || (all[j].v == all[j-1].v && all[j].t < all[j-1].t)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	n := c.TopTerms
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].t
	}
	return out
}

// ---------------------------------------------------------------------
// Ma et al.-style URL-lexical baseline.

// urlLexicalDim is the hashing-trick space of the URL bag-of-words.
const urlLexicalDim = 1 << 16

// URLLexical is the Ma et al. archetype: logistic regression over hashed
// URL tokens (scheme, FQDN labels, path/query terms) of the starting and
// landing URLs.
type URLLexical struct {
	model *ml.LogisticRegression
}

// Name implements Classifier.
func (u *URLLexical) Name() string { return "URL-lexical LR (Ma et al. style)" }

// urlTokens produces the hashed sparse vector of one snapshot.
func urlTokens(s *webpage.Snapshot) ml.SparseVector {
	var v ml.SparseVector
	add := func(tok string) {
		v = append(v, ml.SparseEntry{Index: ml.HashFeature(tok, urlLexicalDim), Value: 1})
	}
	for tag, raw := range map[string]string{"start": s.StartingURL, "land": s.LandingURL} {
		if i := strings.Index(raw, "://"); i > 0 {
			add(tag + ":scheme:" + raw[:i])
		}
		for _, t := range terms.Extract(raw) {
			add(tag + ":term:" + t)
		}
		// Crude length buckets, as Ma et al. mix lexical and simple
		// numeric features.
		add(fmt.Sprintf("%s:lenbucket:%d", tag, len(raw)/16))
		add(fmt.Sprintf("%s:dots:%d", tag, strings.Count(raw, ".")))
	}
	return v
}

// TrainURLLexical fits the baseline on labeled snapshots.
func TrainURLLexical(snaps []*webpage.Snapshot, labels []int, seed int64) (*URLLexical, error) {
	x := make([]ml.SparseVector, len(snaps))
	for i, s := range snaps {
		x[i] = urlTokens(s)
	}
	m, err := ml.TrainLogistic(x, labels, ml.LRConfig{Dim: urlLexicalDim, Epochs: 8, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("baselines: training URL-lexical: %w", err)
	}
	return &URLLexical{model: m}, nil
}

// Score implements Classifier.
func (u *URLLexical) Score(s *webpage.Snapshot) float64 {
	return u.model.Score(urlTokens(s))
}

// ---------------------------------------------------------------------
// Whittaker et al.-style bag-of-words baseline.

// bowDim is the hashing space of the page bag-of-words.
const bowDim = 1 << 18

// BagOfWords is the Whittaker et al. archetype: a large static
// bag-of-words over page text, title and URLs. Its weakness — the one the
// paper's Section IV-A argues against — is brand dependence: the learned
// vocabulary is dominated by the brands seen in training.
type BagOfWords struct {
	model *ml.LogisticRegression
}

// Name implements Classifier.
func (b *BagOfWords) Name() string { return "Bag-of-words (Whittaker et al. style)" }

func bowTokens(s *webpage.Snapshot) ml.SparseVector {
	counts := map[int]float64{}
	addAll := func(prefix, text string) {
		for _, t := range terms.Extract(text) {
			counts[ml.HashFeature(prefix+t, bowDim)]++
		}
	}
	addAll("text:", s.Text)
	addAll("title:", s.Title)
	addAll("url:", s.StartingURL)
	addAll("url:", s.LandingURL)
	for _, l := range s.HREFLinks {
		addAll("href:", l)
	}
	v := make(ml.SparseVector, 0, len(counts))
	for i, c := range counts {
		v = append(v, ml.SparseEntry{Index: i, Value: c})
	}
	return v
}

// TrainBagOfWords fits the baseline on labeled snapshots.
func TrainBagOfWords(snaps []*webpage.Snapshot, labels []int, seed int64) (*BagOfWords, error) {
	x := make([]ml.SparseVector, len(snaps))
	for i, s := range snaps {
		x[i] = bowTokens(s)
	}
	m, err := ml.TrainLogistic(x, labels, ml.LRConfig{Dim: bowDim, Epochs: 8, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("baselines: training bag-of-words: %w", err)
	}
	return &BagOfWords{model: m}, nil
}

// Score implements Classifier.
func (b *BagOfWords) Score(s *webpage.Snapshot) float64 {
	return b.model.Score(bowTokens(s))
}

// Interface compliance.
var (
	_ Classifier = (*Cantina)(nil)
	_ Classifier = (*URLLexical)(nil)
	_ Classifier = (*BagOfWords)(nil)
)
