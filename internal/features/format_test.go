package features

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"knowphish/internal/crawl"
	"knowphish/internal/webgen"
)

// rewritingFetcher serves what f serves with every text node of the
// html passed through rewrite.
type rewritingFetcher struct {
	f       crawl.Fetcher
	rewrite func(text string) string
}

func (r rewritingFetcher) Fetch(url string) (*webgen.Page, bool) {
	p, ok := r.f.Fetch(url)
	if !ok {
		return p, ok
	}
	out := *p
	out.HTML = rewriteTextNodes(p.HTML, r.rewrite)
	return &out, true
}

// rewriteTextNodes passes every run of html outside a tag through
// rewrite; the tags, their attributes included, are kept as written.
func rewriteTextNodes(html string, rewrite func(string) string) string {
	var b strings.Builder
	for html != "" {
		lt := strings.IndexByte(html, '<')
		if lt < 0 {
			lt = len(html)
		}
		b.WriteString(rewrite(html[:lt]))
		html = html[lt:]
		gt := strings.IndexByte(html, '>')
		if gt < 0 {
			gt = len(html) - 1
		}
		b.WriteString(html[:gt+1])
		html = html[gt+1:]
	}
	return b.String()
}

// eachChar calls emit with every character of text: a character
// reference ("&amp;") is one character, a rune is another.
func eachChar(text string, emit func(c string)) {
	for text != "" {
		n := 1
		if text[0] == '&' {
			if semi := strings.IndexByte(text, ';'); semi > 0 && semi < 10 {
				n = semi + 1
			}
		} else {
			_, n = utf8.DecodeRuneInString(text)
		}
		emit(text[:n])
		text = text[n:]
	}
}

// zeroWidthEveryThird inserts U+200B after every third character.
func zeroWidthEveryThird(text string) string {
	var b strings.Builder
	i := 0
	eachChar(text, func(c string) {
		b.WriteString(c)
		if i++; i%3 == 0 {
			b.WriteString("\u200b")
		}
	})
	return b.String()
}

// softHyphenInWords inserts U+00AD between every two letters of a word.
func softHyphenInWords(text string) string {
	var b strings.Builder
	prevLetter := false
	eachChar(text, func(c string) {
		r, _ := utf8.DecodeRuneInString(c)
		letter := len(c) == utf8.RuneLen(r) && (r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r > 0x7f)
		if letter && prevLetter {
			b.WriteString("\u00ad")
		}
		b.WriteString(c)
		prevLetter = letter
	})
	return b.String()
}

// TestFeaturesIgnoreFormatCharacters is a metamorphic test over
// generated pages: a browser draws no format character, so a page
// whose text nodes carry U+200B after every third character, or U+00AD
// inside every word, renders as the page without them, and every one
// of its 212 features must be bit-identical to the page's.
func TestFeaturesIgnoreFormatCharacters(t *testing.T) {
	w := webgen.New(webgen.Config{Seed: 11, Brands: 40, RankedGenerics: 60, VocabularyWords: 100})
	e := &Extractor{Rank: w.Ranking()}
	names := Names()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 60; i++ {
		lang := webgen.Languages[i%len(webgen.Languages)]
		var site *webgen.Site
		if i%2 == 0 {
			opts := w.RandomPhishOptions(rng)
			opts.Lang = lang
			site = w.NewPhishSite(rng, opts)
		} else {
			site = w.NewLegitSite(rng, webgen.LegitOptions{Lang: lang})
		}
		fetcher := crawl.Compose(site, w)
		snap, err := crawl.Visit(fetcher, site.StartURL)
		if err != nil {
			t.Fatalf("visit %s: %v", site.StartURL, err)
		}
		want := e.ExtractSnapshot(snap)
		for _, rw := range []struct {
			name    string
			rewrite func(string) string
			mark    string
		}{
			{"U+200B after every third character", zeroWidthEveryThird, "\u200b"},
			{"U+00AD inside words", softHyphenInWords, "\u00ad"},
		} {
			rewritten, err := crawl.Visit(rewritingFetcher{fetcher, rw.rewrite}, site.StartURL)
			if err != nil {
				t.Fatalf("visit %s rewritten: %v", site.StartURL, err)
			}
			if !strings.Contains(rewritten.Text, rw.mark) {
				t.Fatalf("%s: the rewrite left the text of %s unchanged", rw.name, site.StartURL)
			}
			for j, v := range e.ExtractSnapshot(rewritten) {
				if math.Float64bits(v) != math.Float64bits(want[j]) {
					t.Errorf("%s, %s: feature %s = %v, want %v", rw.name, site.StartURL, names[j], v, want[j])
				}
			}
		}
	}
}
