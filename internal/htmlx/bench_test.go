package htmlx_test

import (
	"math/rand"
	"testing"

	"knowphish/internal/htmlx"
	"knowphish/internal/webgen"
)

// benchPages returns the landing pages of 500 generated legitimate
// sites, cycling through the six languages.
func benchPages() []string {
	w := webgen.New(webgen.Config{Seed: 5, Brands: 60, RankedGenerics: 80, VocabularyWords: 100})
	rng := rand.New(rand.NewSource(5))
	var pages []string
	for i := 0; len(pages) < 500; i++ {
		site := w.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.Languages[i%len(webgen.Languages)]})
		if p, ok := site.Fetch(site.StartURL); ok && p.HTML != "" {
			pages = append(pages, p.HTML)
		}
	}
	return pages
}

// BenchmarkParse parses the benchPages into Documents of their own.
func BenchmarkParse(b *testing.B) {
	pages := benchPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htmlx.Parse(pages[i%len(pages)])
	}
}

// BenchmarkParserParse parses the benchPages on one Parser, leaving
// each Document in its storage: the borrowed ending a score request
// uses.
func BenchmarkParserParse(b *testing.B) {
	pages := benchPages()
	var p htmlx.Parser
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Parse(pages[i%len(pages)])
	}
}
