// Package webgen generates the synthetic web the reproduction runs
// against: brands (phishing targets), legitimate sites in six languages,
// phishing sites built with the construction and evasion techniques the
// paper describes (Sections II-A, VII-C), parked domains and unavailable
// pages. It substitutes for the live web plus the PhishTank and Intel
// Security URL feeds.
//
// Everything is deterministic given the configured seed.
package webgen

import (
	"fmt"
	"math/rand"
	"strings"

	"knowphish/internal/ranking"
)

// Config controls world generation. The zero value gets sensible defaults
// from New.
type Config struct {
	// Seed drives all generation; identical seeds rebuild identical
	// worlds.
	Seed int64
	// Brands is the number of legitimate brands (default 140; the
	// phishBrand campaign needs at least 126 distinct targets).
	Brands int
	// RankedGenerics is the number of pre-ranked generic legitimate
	// RDNs per language (default 400). Together with brands they form
	// the synthetic Alexa list.
	RankedGenerics int
	// VocabularyWords is the per-language common-word pool size
	// (default 360).
	VocabularyWords int
}

func (c Config) withDefaults() Config {
	if c.Brands <= 0 {
		c.Brands = 140
	}
	if c.RankedGenerics <= 0 {
		c.RankedGenerics = 400
	}
	if c.VocabularyWords <= 0 {
		c.VocabularyWords = 360
	}
	return c
}

// SiteKind classifies a generated site.
type SiteKind int

// Site kinds.
const (
	KindBrand SiteKind = iota + 1
	KindGeneric
	KindPhish
	KindParked
	KindUnavailable
)

func (k SiteKind) String() string {
	switch k {
	case KindBrand:
		return "brand"
	case KindGeneric:
		return "generic"
	case KindPhish:
		return "phish"
	case KindParked:
		return "parked"
	case KindUnavailable:
		return "unavailable"
	default:
		return "unknown"
	}
}

// Page is one fetchable resource of the synthetic web.
type Page struct {
	// URL is the page's address.
	URL string
	// RedirectTo, when non-empty, makes fetching this page redirect.
	RedirectTo string
	// HTML is the page source served to the browser.
	HTML string
	// ScreenshotText is the text a rendered screenshot of the page
	// would show (body text plus image/logo text); the OCR simulator
	// reads it.
	ScreenshotText []string
}

// Site is one generated website visit target: a starting URL plus every
// page needed to resolve it (redirect hops and the landing page).
type Site struct {
	// StartURL is the URL "distributed to the victim" (starting URL in
	// the paper's terms).
	StartURL string
	// Pages maps URL → page for this site, including redirect hops.
	Pages map[string]*Page
	// Kind classifies the site.
	Kind SiteKind
	// Lang is the content language.
	Lang Language
	// RDN is the landing registered domain ("" for IP-hosted sites).
	RDN string
	// IsPhish reports ground truth.
	IsPhish bool
	// TargetMLD and TargetRDN name the mimicked brand for phishing
	// sites ("" otherwise).
	TargetMLD string
	TargetRDN string

	// embeddedBrand records the brand a merchant-checkout page embeds;
	// NewClonePhishSite uses it as the clone's target.
	embeddedBrand *Brand
}

// Fetch returns the page at url within this site.
func (s *Site) Fetch(url string) (*Page, bool) {
	p, ok := s.Pages[url]
	return p, ok
}

// World is the persistent part of the synthetic web: brands and their
// sites, infrastructure domains, vocabularies and the popularity ranking.
// Ephemeral sites (legitimate test pages, phishing pages) are generated on
// demand by the New*Site methods and are not stored in the world.
//
// World is immutable after New and safe for concurrent readers.
type World struct {
	cfg        Config
	Brands     []*Brand
	brandByMLD map[string]*Brand
	vocab      map[Language]*vocabulary
	rank       *ranking.List
	pages      map[string]*Page // persistent brand pages
	infra      []infraDomain
	shorteners []string
	rankedRDN  map[Language][]rankedGeneric
	adNetworks []string
}

type infraDomain struct {
	fqdn string // e.g. "cdn.libhub.net"
	kind string // cdn, analytics, ads, social-widget
}

type rankedGeneric struct {
	rdn   string
	terms []string
}

// New builds a world from cfg.
func New(cfg Config) *World {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		cfg:        cfg,
		brandByMLD: make(map[string]*Brand),
		vocab:      make(map[Language]*vocabulary, len(Languages)),
		pages:      make(map[string]*Page),
		rankedRDN:  make(map[Language][]rankedGeneric),
	}
	for _, l := range Languages {
		w.vocab[l] = newVocabulary(l, cfg.VocabularyWords)
	}
	w.Brands = generateBrands(rng, cfg.Brands)
	for _, b := range w.Brands {
		w.brandByMLD[b.MLD] = b
	}
	w.buildInfra(rng)
	w.buildRankedGenerics(rng)
	w.buildRanking()
	for _, b := range w.Brands {
		w.buildBrandSite(rng, b)
	}
	return w
}

// Config returns the configuration the world was built with.
func (w *World) Config() Config { return w.cfg }

// Vocabulary exposes a language's word pools to sibling generators.
func (w *World) vocabFor(l Language) *vocabulary {
	if v, ok := w.vocab[l]; ok {
		return v
	}
	return w.vocab[English]
}

// Ranking returns the synthetic Alexa-style list: brands first (by brand
// rank), then the ranked generic pool.
func (w *World) Ranking() *ranking.List { return w.rank }

// BrandByMLD looks a brand up by its main level domain.
func (w *World) BrandByMLD(mld string) (*Brand, bool) {
	b, ok := w.brandByMLD[mld]
	return b, ok
}

// Fetch resolves a URL against the world's persistent pages (brand sites).
func (w *World) Fetch(url string) (*Page, bool) {
	p, ok := w.pages[url]
	return p, ok
}

func (w *World) buildInfra(rng *rand.Rand) {
	cdn := []string{"libhub.net", "staticroute.com", "fastedge.net", "assetpool.com"}
	analytics := []string{"trackmetrics.com", "sitepulse.net", "statbeam.com"}
	ads := []string{"adgrid.net", "bannerflow.com", "clickyard.net", "promoreach.com"}
	social := []string{"sharewidget.net", "likebadge.com"}
	for _, d := range cdn {
		w.infra = append(w.infra, infraDomain{fqdn: "cdn." + d, kind: "cdn"})
	}
	for _, d := range analytics {
		w.infra = append(w.infra, infraDomain{fqdn: "js." + d, kind: "analytics"})
	}
	for _, d := range ads {
		w.infra = append(w.infra, infraDomain{fqdn: "ads." + d, kind: "ads"})
		w.adNetworks = append(w.adNetworks, d)
	}
	for _, d := range social {
		w.infra = append(w.infra, infraDomain{fqdn: "widgets." + d, kind: "social-widget"})
	}
	w.shorteners = []string{"qlnk.net", "tinyto.net", "shrtr.co", "redir.me"}
	_ = rng
}

var genericSuffixByLang = map[Language][]string{
	English:    {"com", "com", "net", "org", "co.uk", "io", "us"},
	French:     {"fr", "fr", "com", "com.fr", "net"},
	German:     {"de", "de", "com", "net", "at", "ch"},
	Italian:    {"it", "it", "com", "net"},
	Portuguese: {"pt", "pt", "com.br", "com", "com.pt", "net"},
	Spanish:    {"es", "es", "com", "com.mx", "com.ar", "net"},
}

// buildRankedGenerics creates the per-language pools of popular generic
// legitimate domains (blogs, shops, news sites).
func (w *World) buildRankedGenerics(rng *rand.Rand) {
	for _, l := range Languages {
		v := w.vocabFor(l)
		pool := make([]rankedGeneric, 0, w.cfg.RankedGenerics)
		seen := map[string]struct{}{}
		for len(pool) < w.cfg.RankedGenerics {
			g := w.newGenericRDN(rng, v)
			if _, dup := seen[g.rdn]; dup {
				continue
			}
			seen[g.rdn] = struct{}{}
			pool = append(pool, g)
		}
		w.rankedRDN[l] = pool
	}
}

// newGenericRDN invents a legitimate-looking registered domain and the
// name terms a site on it would use. A slice of domains deliberately
// reproduce the paper's hard cases (§VII-B): concatenated long mlds,
// hyphen/digit mlds whose terms are destroyed by extraction, and short
// abbreviations.
func (w *World) newGenericRDN(rng *rand.Rand, v *vocabulary) rankedGeneric {
	ps := pick(rng, genericSuffixByLang[v.lang])
	switch r := rng.Float64(); {
	case r < 0.55: // two-word concatenation: "harborfield.com"
		a, b := pick(rng, v.common), pick(rng, v.common)
		return rankedGeneric{rdn: a + b + "." + ps, terms: []string{a, b}}
	case r < 0.72: // single word
		a := pick(rng, v.common)
		return rankedGeneric{rdn: a + "." + ps, terms: []string{a}}
	case r < 0.82: // hyphenated: "harbor-field.net" (terms survive)
		a, b := pick(rng, v.common), pick(rng, v.common)
		return rankedGeneric{rdn: a + "-" + b + "." + ps, terms: []string{a, b}}
	case r < 0.90: // three-word run-on: "theinstantexchange" analogue
		// Long-syllable languages (Portuguese, German) would otherwise
		// produce 20+ character mlds far outside the length range the
		// model sees in (English) training; real run-on domains stay
		// register-friendly, so retry toward <= 18 characters.
		mld := ""
		for attempt := 0; attempt < 6; attempt++ {
			a, b, c := pick(rng, v.glue), pick(rng, v.common), pick(rng, v.common)
			mld = a + b + c
			if len(mld) <= 18 {
				break
			}
			if attempt == 5 {
				mld = a + b
			}
		}
		return rankedGeneric{rdn: mld + "." + ps, terms: []string{mld}}
	case r < 0.96: // digit/hyphen salad: "dl4a", "s2mr" — terms destroyed
		letters := "abcdefghijklmnopqrstuvwxyz"
		mld := fmt.Sprintf("%c%c%d%c", letters[rng.Intn(26)], letters[rng.Intn(26)], rng.Intn(10), letters[rng.Intn(26)])
		return rankedGeneric{rdn: mld + "." + ps, terms: nil}
	default: // abbreviation: "pfa" for a longer name
		letters := "abcdefghijklmnopqrstuvwxyz"
		n := 3 + rng.Intn(2)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(26)]
		}
		return rankedGeneric{rdn: string(b) + "." + ps, terms: []string{string(b)}}
	}
}

func (w *World) buildRanking() {
	domains := make([]string, 0, len(w.Brands)+len(Languages)*w.cfg.RankedGenerics)
	for _, b := range w.Brands {
		domains = append(domains, b.RDN())
	}
	// Interleave languages so every language has popular domains.
	for i := 0; i < w.cfg.RankedGenerics; i++ {
		for _, l := range Languages {
			domains = append(domains, w.rankedRDN[l][i].rdn)
		}
	}
	w.rank = ranking.New(domains)
}

// titleCase capitalizes the first letter of each space-separated word.
func titleCase(s string) string {
	words := strings.Fields(s)
	for i, word := range words {
		if word == "" {
			continue
		}
		words[i] = strings.ToUpper(word[:1]) + word[1:]
	}
	return strings.Join(words, " ")
}
