// Package dataset assembles the evaluation corpora of Table V from the
// synthetic world: the PhishTank-style phishing campaigns (phishTrain,
// phishTest, phishBrand), the Intel-style legitimate sets (legTrain plus
// six language test sets), and the cleaning pass that removes unavailable
// pages and parked domains from raw campaign captures.
//
// It also maintains the search-engine index over every crawled legitimate
// page plus all brand sites, which target identification queries.
package dataset

import (
	"fmt"
	"math/rand"

	"knowphish/internal/crawl"
	"knowphish/internal/pool"
	"knowphish/internal/search"
	"knowphish/internal/terms"
	"knowphish/internal/urlx"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// Example is one labeled page visit.
type Example struct {
	// Snapshot is the crawled page.
	Snapshot *webpage.Snapshot `json:"snapshot"`
	// Label is 1 for phishing, 0 for legitimate.
	Label int `json:"label"`
	// Kind is the generator kind (phish, generic, brand, parked,
	// unavailable) — ground-truth metadata the detector never sees.
	Kind string `json:"kind"`
	// TargetMLD and TargetRDN name the true target of a phish.
	TargetMLD string `json:"target_mld,omitempty"`
	TargetRDN string `json:"target_rdn,omitempty"`
	// NoHint marks phishing pages deliberately built with no reference
	// to their target (Table IX's "unknown target" rows).
	NoHint bool `json:"no_hint,omitempty"`
	// Lang is the content language.
	Lang webgen.Language `json:"lang"`
}

// Campaign is one collection pass with its Table V bookkeeping.
type Campaign struct {
	// Name matches Table V (phishTrain, phishTest, phishBrand,
	// legTrain, English, French, ...).
	Name string `json:"name"`
	// Initial is the raw capture size before cleaning.
	Initial int `json:"initial"`
	// Examples are the post-cleaning contents.
	Examples []*Example `json:"examples"`
}

// Clean returns the post-cleaning size (len(Examples)).
func (c *Campaign) Clean() int { return len(c.Examples) }

// Labels returns the label vector of the campaign.
func (c *Campaign) Labels() []int {
	out := make([]int, len(c.Examples))
	for i, ex := range c.Examples {
		out[i] = ex.Label
	}
	return out
}

// Snapshots returns the snapshot slice of the campaign.
func (c *Campaign) Snapshots() []*webpage.Snapshot {
	out := make([]*webpage.Snapshot, len(c.Examples))
	for i, ex := range c.Examples {
		out[i] = ex.Snapshot
	}
	return out
}

// Config controls corpus generation.
type Config struct {
	// Seed drives campaign sampling (the world has its own seed inside
	// World).
	Seed int64
	// Scale divides the paper's dataset sizes: Scale 1 reproduces Table
	// V exactly (100,000-page English set); Scale 10 is the default
	// fast setting. Table shapes are stable across scales.
	Scale int
	// World configures the synthetic web (zero value = defaults). A zero
	// World.Seed becomes Seed+1: one seed names both corpus and world.
	World webgen.Config
	// SkipLanguageTests drops the five non-English test sets (used by
	// unit tests and micro-benchmarks).
	SkipLanguageTests bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 10
	}
	if c.World.Seed == 0 {
		c.World.Seed = c.Seed + 1
	}
	return c
}

// paperSizes are the clean sizes of Table V.
var paperSizes = struct {
	phishTrainInitial, phishTrainClean int
	phishTestInitial, phishTestClean   int
	phishBrand                         int
	legTrainInitial, legTrainClean     int
	english, otherLang                 int
}{
	phishTrainInitial: 1213, phishTrainClean: 1036,
	phishTestInitial: 1553, phishTestClean: 1216,
	phishBrand:      600,
	legTrainInitial: 5000, legTrainClean: 4531,
	english: 100000, otherLang: 10000,
}

// Corpus bundles the full evaluation data.
type Corpus struct {
	World  *webgen.World
	Engine *search.Engine

	PhishTrain *Campaign
	PhishTest  *Campaign
	PhishBrand *Campaign
	LegTrain   *Campaign
	// LangTests holds the six language test sets keyed by language
	// (English included).
	LangTests map[webgen.Language]*Campaign

	cfg Config
}

// Scale returns the scale divisor the corpus was built with.
func (c *Corpus) Scale() int { return c.cfg.Scale }

// Build generates the full corpus. Deterministic per Config.
func Build(cfg Config) (*Corpus, error) {
	cfg = cfg.withDefaults()
	w := webgen.New(cfg.World)
	c := &Corpus{
		World:     w,
		Engine:    search.NewEngine(),
		LangTests: make(map[webgen.Language]*Campaign),
		cfg:       cfg,
	}
	for _, b := range w.Brands {
		c.Engine.Add(search.Doc{URL: b.HomeURL(), RDN: b.RDN(), MLD: b.MLD, Terms: b.IndexTerms()})
	}
	s := cfg.Scale
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	var err error
	if c.PhishTrain, err = c.buildPhishCampaign(rng, "phishTrain", paperSizes.phishTrainInitial/s, paperSizes.phishTrainClean/s, 0, 0); err != nil {
		return nil, err
	}
	// legTrain draws from the same page mixture as the test sets (the
	// paper's legitimate train and test URLs come from the same Intel
	// source), including the news-style hard negatives and the few
	// percent of non-English pages any "English" web crawl contains.
	if c.LegTrain, err = c.buildLegCampaign(rng, "legTrain", webgen.English, paperSizes.legTrainInitial/s, paperSizes.legTrainClean/s, true); err != nil {
		return nil, err
	}
	// The later campaigns carry the newer perfect-clone kits (§VII-C
	// limit case) that had not yet appeared when phishTrain was captured
	// — the attack-mix drift the paper's old-train/new-test split
	// deliberately exposes.
	if c.PhishTest, err = c.buildPhishCampaign(rng, "phishTest", paperSizes.phishTestInitial/s, paperSizes.phishTestClean/s, 0, 0.02); err != nil {
		return nil, err
	}
	noHint := max(1, 17*paperSizes.phishBrand/600/s)
	if c.PhishBrand, err = c.buildPhishCampaign(rng, "phishBrand", paperSizes.phishBrand/s, paperSizes.phishBrand/s, noHint, 0.02); err != nil {
		return nil, err
	}
	langs := webgen.Languages
	if cfg.SkipLanguageTests {
		langs = []webgen.Language{webgen.English}
	}
	for _, lang := range langs {
		size := paperSizes.otherLang / s
		name := "French"
		switch lang {
		case webgen.English:
			size = paperSizes.english / s
			name = "English"
		case webgen.French:
			name = "French"
		case webgen.German:
			name = "German"
		case webgen.Italian:
			name = "Italian"
		case webgen.Portuguese:
			name = "Portuguese"
		case webgen.Spanish:
			name = "Spanish"
		}
		camp, err := c.buildLegCampaign(rng, name, lang, size, size, true)
		if err != nil {
			return nil, err
		}
		c.LangTests[lang] = camp
	}
	return c, nil
}

// buildPhishCampaign simulates one PhishTank collection pass: the raw
// capture contains real phishs plus junk (unavailable pages, parked
// domains, the odd mislabeled legitimate site); cleaning removes the junk.
// noHint > 0 forces that many pages to carry no target reference;
// cloneRate is the fraction of perfect-clone kits in the campaign.
func (c *Corpus) buildPhishCampaign(rng *rand.Rand, name string, initial, clean, noHint int, cloneRate float64) (*Campaign, error) {
	if clean < 1 {
		clean = 1
	}
	if initial < clean {
		initial = clean
	}
	camp := &Campaign{Name: name, Initial: initial}
	for i := 0; i < clean; i++ {
		opts := c.World.RandomPhishOptions(rng)
		isNoHint := i < noHint
		if isNoHint {
			opts.NoExternalLinks = true
			opts.MinimalText = true
			opts.ImageOnly = false
			opts.Hosting = webgen.HostDedicated
		}
		var site *webgen.Site
		if !isNoHint && rng.Float64() < cloneRate {
			// Perfect-clone kits: the §VII-C limit case (see
			// webgen.NewClonePhishSite).
			site = c.World.NewClonePhishSite(rng)
		} else {
			site = c.World.NewPhishSite(rng, opts)
		}
		snap, err := crawl.VisitSite(c.World, site)
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", name, err)
		}
		if isNoHint {
			stripTargetHints(snap, site)
		}
		camp.Examples = append(camp.Examples, &Example{
			Snapshot:  snap,
			Label:     1,
			Kind:      site.Kind.String(),
			TargetMLD: site.TargetMLD,
			TargetRDN: site.TargetRDN,
			NoHint:    isNoHint,
			Lang:      site.Lang,
		})
	}
	return camp, nil
}

// stripTargetHints rewrites a no-hint phish so that nothing on the page
// names the target: Table IX's 17 "unknown target" pages, where the lure
// lived in the email, not the page.
func stripTargetHints(snap *webpage.Snapshot, site *webgen.Site) {
	snap.Title = "Account Verification"
	snap.Text = "please enter your details below to continue"
	snap.Copyright = ""
	snap.ScreenshotTerms = []string{"please enter your details below to continue"}
	var cleanLinks []string
	for _, l := range snap.HREFLinks {
		if !containsFold(l, site.TargetMLD) {
			cleanLinks = append(cleanLinks, l)
		}
	}
	snap.HREFLinks = cleanLinks
	var cleanLogged []string
	for _, l := range snap.LoggedLinks {
		if !containsFold(l, site.TargetMLD) {
			cleanLogged = append(cleanLogged, l)
		}
	}
	snap.LoggedLinks = cleanLogged
}

func containsFold(s, sub string) bool {
	if sub == "" {
		return false
	}
	return len(s) >= len(sub) && (stringIndexFold(s, sub) >= 0)
}

func stringIndexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		match := true
		for j := 0; j < len(sub); j++ {
			a, b := s[i+j]|0x20, sub[j]|0x20
			if a != b {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// legChunk is how many drawn sites buildLegCampaign holds before it
// visits them: enough that a chunk's parallel pass dwarfs starting its
// workers, few enough that the generated HTML in memory stays ~130 KB.
const legChunk = 64

// legVisit is one drawn legitimate site and what its crawl produced.
type legVisit struct {
	site *webgen.Site
	snap *webpage.Snapshot
	doc  search.Doc
	err  error
}

// buildLegCampaign generates one legitimate campaign. Every crawled page
// is added to the search index. When mixedKinds is true a small fraction
// of hard negatives (news-style pages) is included.
//
// Sites are drawn from rng one after another — the draw order is the
// corpus — a chunk at a time, and only on the caller. A chunk's sites are
// crawled and turned into index documents on all cores (the world is
// immutable) while the caller appends and indexes the chunk before it
// and draws the chunk after it; chunks are appended and indexed in draw
// order, so examples and doc ids do not depend on the core count.
func (c *Corpus) buildLegCampaign(rng *rand.Rand, name string, lang webgen.Language, initial, clean int, mixedKinds bool) (*Campaign, error) {
	if clean < 1 {
		clean = 1
	}
	if initial < clean {
		initial = clean
	}
	camp := &Campaign{Name: name, Initial: initial, Examples: make([]*Example, 0, clean)}
	drawn := 0
	draw := func(chunk []legVisit) []legVisit {
		chunk = chunk[:0]
		for ; len(chunk) < legChunk && drawn < clean; drawn++ {
			opts := webgen.LegitOptions{Lang: lang}
			if mixedKinds && rng.Float64() < 0.08 {
				opts.NewsStyle = true
			}
			// Real-world crawls are never perfectly monolingual: the
			// training campaign carries a few percent of pages in other
			// languages (language test sets stay pure, as Intel's
			// per-language classification made them).
			if name == "legTrain" && rng.Float64() < 0.04 {
				opts.Lang = webgen.Languages[rng.Intn(len(webgen.Languages))]
			}
			chunk = append(chunk, legVisit{site: c.World.NewLegitSite(rng, opts)})
		}
		return chunk
	}
	index := func(chunk []legVisit) error {
		for _, v := range chunk {
			if v.err != nil {
				return fmt.Errorf("dataset: %s: %w", name, v.err)
			}
			c.Engine.Add(v.doc)
			camp.Examples = append(camp.Examples, &Example{
				Snapshot: v.snap,
				Label:    0,
				Kind:     v.site.Kind.String(),
				Lang:     v.site.Lang,
			})
		}
		return nil
	}
	var prev, next []legVisit
	for cur := draw(nil); len(cur) > 0; {
		crawled := make(chan struct{})
		go func(chunk []legVisit) {
			defer close(crawled)
			pool.ForEachIndex(len(chunk), 0, func(i int) {
				v := &chunk[i]
				if v.snap, v.err = crawl.VisitSite(c.World, v.site); v.err == nil {
					v.doc = legitDoc(v.snap)
				}
			})
		}(cur)
		err := index(prev)
		if err == nil {
			next = draw(next)
		}
		<-crawled
		if err != nil {
			return nil, err
		}
		prev, cur, next = cur, next, prev
	}
	if err := index(prev); err != nil {
		return nil, err
	}
	return camp, nil
}

// legitDoc is the index document of a crawled legitimate page: each term
// of its text, title, landing-RDN and copyright distributions, in their
// sorted order, once per occurrence. Only the landing URL is parsed and
// only those four distributions are built, in one Builder: the index
// reads nothing else of a page. A page without a registered domain is not
// indexed: it gets the zero Doc, which Engine.Add ignores.
func legitDoc(snap *webpage.Snapshot) search.Doc {
	land, _ := urlx.Parse(snap.LandingURL)
	if land.RDN == "" {
		return search.Doc{}
	}
	b := terms.AcquireBuilder()
	defer b.Release()
	// The order of webpage.DistText, DistTitle, DistLandRDN, DistCopyright.
	for _, s := range [...]string{snap.Text, snap.Title, land.UnicodeRDN(), snap.Copyright} {
		b.Add(s)
		b.Next()
	}
	return search.Doc{URL: snap.LandingURL, RDN: land.RDN, MLD: land.MLD, Terms: b.AppendSorted(nil)}
}

// NoisyCapture regenerates a raw (pre-cleaning) phishing capture for the
// Table V bookkeeping: clean phishs plus the junk a PhishTank feed
// contains. Returned examples are labeled by generator kind; the cleaning
// pass is Clean().
func (c *Corpus) NoisyCapture(rng *rand.Rand, n int) []*Example {
	var out []*Example
	for i := 0; i < n; i++ {
		var site *webgen.Site
		switch r := rng.Float64(); {
		case r < 0.82:
			site = c.World.NewPhishSite(rng, c.World.RandomPhishOptions(rng))
		case r < 0.92:
			site = c.World.NewParkedSite(rng)
		case r < 0.98:
			site = c.World.NewUnavailableSite(rng)
		default:
			site = c.World.NewLegitSite(rng, webgen.LegitOptions{Lang: webgen.English})
		}
		snap, err := crawl.VisitSite(c.World, site)
		if err != nil {
			continue
		}
		label := 0
		if site.IsPhish {
			label = 1
		}
		out = append(out, &Example{
			Snapshot: snap, Label: label, Kind: site.Kind.String(),
			TargetMLD: site.TargetMLD, TargetRDN: site.TargetRDN, Lang: site.Lang,
		})
	}
	return out
}

// CleanCapture filters a noisy capture the way the paper's manual pass
// does: keep only true phishing pages.
func CleanCapture(raw []*Example) []*Example {
	var out []*Example
	for _, ex := range raw {
		if ex.Kind == webgen.KindPhish.String() {
			out = append(out, ex)
		}
	}
	return out
}
