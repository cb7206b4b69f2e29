package webgen

import (
	"math/rand"
	"strings"
	"testing"

	"knowphish/internal/ranking"
	"knowphish/internal/urlx"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	return New(Config{Seed: 1, Brands: 130, RankedGenerics: 100, VocabularyWords: 120})
}

func TestWorldDeterministic(t *testing.T) {
	w1 := New(Config{Seed: 7, Brands: 20, RankedGenerics: 30, VocabularyWords: 50})
	w2 := New(Config{Seed: 7, Brands: 20, RankedGenerics: 30, VocabularyWords: 50})
	if len(w1.Brands) != len(w2.Brands) {
		t.Fatalf("brand counts differ: %d vs %d", len(w1.Brands), len(w2.Brands))
	}
	for i := range w1.Brands {
		if w1.Brands[i].MLD != w2.Brands[i].MLD {
			t.Fatalf("brand %d differs: %s vs %s", i, w1.Brands[i].MLD, w2.Brands[i].MLD)
		}
	}
	r1 := rand.New(rand.NewSource(3))
	r2 := rand.New(rand.NewSource(3))
	s1 := w1.NewPhishSite(r1, PhishOptions{})
	s2 := w2.NewPhishSite(r2, PhishOptions{})
	if s1.StartURL != s2.StartURL {
		t.Errorf("same seed, different phish URLs: %s vs %s", s1.StartURL, s2.StartURL)
	}
}

func TestBrandsDistinctAndParseable(t *testing.T) {
	w := testWorld(t)
	if len(w.Brands) != 130 {
		t.Fatalf("brands = %d, want 130", len(w.Brands))
	}
	seen := map[string]bool{}
	for _, b := range w.Brands {
		if seen[b.MLD] {
			t.Errorf("duplicate brand mld %q", b.MLD)
		}
		seen[b.MLD] = true
		p := urlx.MustParse(b.HomeURL())
		if p.RDN != b.RDN() {
			t.Errorf("brand %s: parsed RDN %q != %q", b.MLD, p.RDN, b.RDN())
		}
		if p.MLD != b.MLD {
			t.Errorf("brand %s: parsed MLD %q", b.MLD, p.MLD)
		}
		if len(b.Terms) == 0 {
			t.Errorf("brand %s has no terms", b.MLD)
		}
		if len(b.IndexTerms()) == 0 {
			t.Errorf("brand %s has no index terms", b.MLD)
		}
	}
}

func TestBrandPagesFetchable(t *testing.T) {
	w := testWorld(t)
	b := w.Brands[0]
	for _, u := range w.BrandSiteURLs(b) {
		p, ok := w.Fetch(u)
		if !ok {
			t.Fatalf("brand page %s not fetchable", u)
		}
		if p.RedirectTo == "" && !strings.Contains(p.HTML, "<title>") {
			t.Errorf("brand page %s has no title", u)
		}
	}
	// Bare domain redirects to canonical front page.
	p, ok := w.Fetch("https://" + b.RDN() + "/")
	if !ok || p.RedirectTo == "" {
		t.Error("bare-domain redirect missing")
	}
}

func TestRankingBrandsFirst(t *testing.T) {
	w := testWorld(t)
	for i, b := range w.Brands {
		if got := w.Ranking().Rank(b.RDN()); got != i+1 {
			t.Errorf("brand %s rank = %d, want %d", b.MLD, got, i+1)
		}
	}
	if w.Ranking().Rank("definitely-not-ranked.example") != ranking.UnrankedValue {
		t.Error("unknown domain must be unranked")
	}
}

func TestNewLegitSiteShape(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(2))
	generics, brandVisits := 0, 0
	for i := 0; i < 200; i++ {
		s := w.NewLegitSite(rng, LegitOptions{Lang: English})
		if s.IsPhish {
			t.Fatal("legit site marked phish")
		}
		switch s.Kind {
		case KindBrand:
			brandVisits++
			// Brand visits resolve against world pages, not site pages.
			if _, ok := w.Fetch(s.StartURL); !ok {
				t.Errorf("brand visit start URL %s not in world", s.StartURL)
			}
		case KindGeneric:
			generics++
			found := false
			for u, p := range s.Pages {
				if u == s.StartURL || p.RedirectTo == "" {
					found = true
				}
			}
			if !found {
				t.Errorf("generic site has no fetchable start: %s", s.StartURL)
			}
			if s.RDN == "" {
				t.Error("generic site missing RDN")
			}
		default:
			t.Errorf("unexpected kind %v", s.Kind)
		}
	}
	if generics == 0 || brandVisits == 0 {
		t.Errorf("mixture: generics=%d brandVisits=%d, want both > 0", generics, brandVisits)
	}
}

func TestLegitSiteLanguages(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(3))
	for _, lang := range Languages {
		s := w.NewLegitSite(rng, LegitOptions{Lang: lang, NewsStyle: true})
		if s.Lang != lang {
			t.Errorf("site lang = %s, want %s", s.Lang, lang)
		}
	}
	// Vocabularies must be (mostly) language-distinct: compare French and
	// German common pools.
	fr := w.vocabFor(French).common
	de := map[string]bool{}
	for _, word := range w.vocabFor(German).common {
		de[word] = true
	}
	overlap := 0
	for _, word := range fr {
		if de[word] {
			overlap++
		}
	}
	if overlap > len(fr)/10 {
		t.Errorf("French/German vocabulary overlap = %d of %d, want < 10%%", overlap, len(fr))
	}
}

func TestNewPhishSiteHostings(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(4))
	target := w.Brands[0]
	for _, hosting := range []HostingKind{HostCompromised, HostDedicated, HostTyposquat, HostIP} {
		s := w.NewPhishSite(rng, PhishOptions{Target: target, Hosting: hosting})
		if !s.IsPhish || s.Kind != KindPhish {
			t.Fatalf("%v: not marked phish", hosting)
		}
		if s.TargetMLD != target.MLD || s.TargetRDN != target.RDN() {
			t.Errorf("%v: target = %s/%s", hosting, s.TargetMLD, s.TargetRDN)
		}
		p := urlx.MustParse(s.StartURL)
		switch hosting {
		case HostIP:
			if s.RDN != "" {
				t.Errorf("IP hosting: RDN = %q, want empty", s.RDN)
			}
			if !p.IsIP {
				t.Errorf("IP hosting: start URL %s not IP-literal", s.StartURL)
			}
		case HostTyposquat:
			if s.RDN == target.RDN() {
				t.Errorf("typosquat equals the real RDN %s", s.RDN)
			}
		}
		// The landing page must be fetchable within the site.
		landing := findLanding(t, s)
		if landing == nil {
			t.Fatalf("%v: no landing page", hosting)
		}
		if !strings.Contains(landing.HTML, "input") {
			t.Errorf("%v: phishing page has no input fields", hosting)
		}
		// External links point at the target.
		if hosting != HostIP && !strings.Contains(landing.HTML, target.RDN()) {
			t.Errorf("%v: landing page never references target %s", hosting, target.RDN())
		}
	}
}

func findLanding(t *testing.T, s *Site) *Page {
	t.Helper()
	cur := s.StartURL
	for hop := 0; hop < 10; hop++ {
		p, ok := s.Fetch(cur)
		if !ok {
			t.Fatalf("page %s missing from site", cur)
		}
		if p.RedirectTo == "" {
			return p
		}
		cur = p.RedirectTo
	}
	return nil
}

func TestPhishShortenerChain(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(5))
	s := w.NewPhishSite(rng, PhishOptions{UseShortener: true})
	start, ok := s.Fetch(s.StartURL)
	if !ok {
		t.Fatal("start URL not fetchable")
	}
	if start.RedirectTo == "" {
		t.Fatal("shortener start must redirect")
	}
	p := urlx.MustParse(s.StartURL)
	if len(p.FQDN) > 12 {
		t.Errorf("shortener FQDN suspiciously long: %s", p.FQDN)
	}
}

func TestPhishEvasionVariants(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(6))
	target := w.Brands[3]

	imageOnly := w.NewPhishSite(rng, PhishOptions{Target: target, ImageOnly: true})
	landing := findLanding(t, imageOnly)
	if strings.Contains(landing.HTML, "<p>"+strings.Join(target.Terms, " ")) {
		t.Error("image-only page should not carry brand text in paragraphs")
	}
	joined := strings.Join(landing.ScreenshotText, " ")
	if !strings.Contains(joined, target.Terms[0]) {
		t.Errorf("image-only page screenshot must show brand terms, got %q", joined)
	}

	noExt := w.NewPhishSite(rng, PhishOptions{Target: target, NoExternalLinks: true})
	landing = findLanding(t, noExt)
	if strings.Contains(landing.HTML, target.RDN()) {
		t.Error("NoExternalLinks page still links the target")
	}
}

func TestRandomPhishOptionsMixture(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(7))
	counts := map[HostingKind]int{}
	ipCount := 0
	for i := 0; i < 1000; i++ {
		opts := w.RandomPhishOptions(rng)
		counts[opts.Hosting]++
		if opts.Hosting == HostIP {
			ipCount++
		}
	}
	if counts[HostCompromised] == 0 || counts[HostDedicated] == 0 || counts[HostTyposquat] == 0 {
		t.Errorf("hosting mixture incomplete: %v", counts)
	}
	// IP hosting must stay rare (paper: <2% of phishing URLs).
	if ipCount > 50 {
		t.Errorf("IP hosting = %d of 1000, want < 5%%", ipCount)
	}
}

func TestTyposquatDiffers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		sq := typosquat(rng, "novabank")
		if sq == "novabank" {
			t.Fatal("typosquat returned the original mld")
		}
	}
	if got := typosquat(rng, "abc"); got != "abcs" {
		t.Errorf("short mld typosquat = %q, want abcs", got)
	}
}

func TestParkedSite(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(9))
	s := w.NewParkedSite(rng)
	if s.Kind != KindParked || s.IsPhish {
		t.Fatalf("parked site mislabeled: kind=%v phish=%v", s.Kind, s.IsPhish)
	}
	landing := findLanding(t, s)
	if !strings.Contains(landing.HTML, "parked") {
		t.Error("parked page should say so")
	}
	if !strings.Contains(landing.HTML, "ads.") {
		t.Error("parked page should carry ad links")
	}
}

func TestUnavailableSite(t *testing.T) {
	w := testWorld(t)
	rng := rand.New(rand.NewSource(10))
	s := w.NewUnavailableSite(rng)
	if s.Kind != KindUnavailable {
		t.Fatalf("kind = %v", s.Kind)
	}
	landing := findLanding(t, s)
	if strings.Contains(landing.HTML, "<a ") {
		t.Error("unavailable page should have no links")
	}
}

func TestSiteKindString(t *testing.T) {
	kinds := map[SiteKind]string{
		KindBrand: "brand", KindGeneric: "generic", KindPhish: "phish",
		KindParked: "parked", KindUnavailable: "unavailable", SiteKind(0): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("SiteKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	hostings := map[HostingKind]string{
		HostCompromised: "compromised", HostDedicated: "dedicated",
		HostTyposquat: "typosquat", HostIP: "ip", HostingKind(0): "unknown",
	}
	for h, want := range hostings {
		if got := h.String(); got != want {
			t.Errorf("HostingKind(%d).String() = %q, want %q", h, got, want)
		}
	}
}

func TestVocabularyWordsWellFormed(t *testing.T) {
	w := testWorld(t)
	for _, lang := range Languages {
		v := w.vocabFor(lang)
		if len(v.common) != 120 {
			t.Errorf("%s: common pool = %d, want 120", lang, len(v.common))
		}
		for _, word := range v.common {
			if len(word) < 3 {
				t.Errorf("%s: word %q too short", lang, word)
			}
			for i := 0; i < len(word); i++ {
				if word[i] < 'a' || word[i] > 'z' {
					t.Errorf("%s: word %q not pure a-z", lang, word)
				}
			}
		}
	}
}

func TestTitleCase(t *testing.T) {
	if got := titleCase("nova bank"); got != "Nova Bank" {
		t.Errorf("titleCase = %q", got)
	}
	if got := titleCase(""); got != "" {
		t.Errorf("titleCase(empty) = %q", got)
	}
}
