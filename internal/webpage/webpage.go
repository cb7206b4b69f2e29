// Package webpage models the data sources a browser observes when loading
// a page (Section II-C of the paper) and derives from them the term
// distributions of Table I, split by the control/constraint scheme of
// Section III-A.
//
// A Snapshot is what the scraper records for one visit. An Analysis is the
// derived view: URLs parsed into parts, links classified internal versus
// external by the redirection-chain RDN set, and the fourteen term
// distributions.
package webpage

import (
	"slices"
	"strings"
	"sync"

	"knowphish/internal/htmlx"
	"knowphish/internal/terms"
	"knowphish/internal/urlx"
)

// Snapshot records the raw data sources gathered while visiting one page.
// It is the unit of dataset storage and of classification.
type Snapshot struct {
	// StartingURL is the URL given to the user (email, message, ...).
	StartingURL string `json:"starting_url"`
	// LandingURL is the final URL in the browser address bar.
	LandingURL string `json:"landing_url"`
	// RedirectionChain lists every URL crossed from starting to landing,
	// inclusive of both.
	RedirectionChain []string `json:"redirection_chain"`
	// LoggedLinks are URLs the browser loaded embedded content from.
	LoggedLinks []string `json:"logged_links,omitempty"`
	// Title is the text of the <title> element.
	Title string `json:"title"`
	// Text is the rendered body text.
	Text string `json:"text"`
	// Copyright is the copyright notice found in Text, if any.
	Copyright string `json:"copyright,omitempty"`
	// HREFLinks are outgoing links of the page, absolute where possible.
	HREFLinks []string `json:"href_links,omitempty"`
	// InputCount, ImageCount and IFrameCount are the webpage-content
	// counts of feature set f5.
	InputCount  int `json:"input_count"`
	ImageCount  int `json:"image_count"`
	IFrameCount int `json:"iframe_count"`
	// ScreenshotTerms is the text visible on a rendered screenshot of
	// the page — the layer an OCR pass reads. In the synthetic world the
	// generator fills it directly; internal/ocr adds recognition noise.
	ScreenshotTerms []string `json:"screenshot_terms,omitempty"`
	// Language tags the content language (metadata only; the detector
	// never reads it).
	Language string `json:"language,omitempty"`
}

// FromHTML builds a Snapshot from raw HTML plus visit metadata, resolving
// relative links against the landing URL. chain must include starting and
// landing URLs; when empty it defaults to [starting, landing].
func FromHTML(startingURL, landingURL string, chain []string, html string) Snapshot {
	doc := htmlx.Parse(html)
	s := FromDoc(doc, startingURL, landingURL, chain)
	// The iframe sources share the snapshot's link array but no list of
	// it shows them; as written in html, they would only keep it alive.
	clear(doc.IFrameSrcs)
	return s
}

// Page is a Snapshot in pooled storage, built by BorrowHTML: its title,
// text and copyright are views of the storage's parser buffers, its
// link lists are the parser's arrays, and links that were absolute in
// the html are substrings of it (htmlx's page lifetime). It is valid
// until Release and only as long as the html; whoever keeps a part of
// it past that copies the part.
type Page struct {
	Snapshot
	parser htmlx.Parser
}

var pagePool = sync.Pool{New: func() any { return new(Page) }}

// BorrowHTML is FromHTML into a Page from the pool: once the pool is
// warm, a page whose links are absolute and whose redirection chain is
// given costs no allocation. Its owner calls Release when nothing reads
// the page any more.
func BorrowHTML(startingURL, landingURL string, chain []string, html string) *Page {
	pg := pagePool.Get().(*Page)
	pg.Snapshot = FromDoc(pg.parser.Parse(html), startingURL, landingURL, chain)
	return pg
}

// Release ends the page and returns its storage to the pool, or drops
// it when the page grew the parser past htmlx's bound. After Release
// nothing may read pg or a string or list of its snapshot.
func (pg *Page) Release() {
	pg.Snapshot = Snapshot{}
	if pg.parser.Reset() {
		pagePool.Put(pg)
	}
}

// FromDoc is FromHTML for a page the caller has already parsed. It
// resolves doc's HREFLinks and ResourceLinks in place, in the arrays
// htmlx built, and the snapshot's link lists are those two slices:
// afterwards the caller's doc reads the resolved links, and its
// IFrameSrcs, untouched, stay as written. The landing URL is parsed
// once, on the first relative link.
func FromDoc(doc htmlx.Document, startingURL, landingURL string, chain []string) Snapshot {
	if len(chain) == 0 {
		if startingURL == landingURL {
			chain = []string{startingURL}
		} else {
			chain = []string{startingURL, landingURL}
		}
	}
	base := resolver{base: landingURL}
	for _, refs := range [2][]string{doc.HREFLinks, doc.ResourceLinks} {
		for i, l := range refs {
			refs[i] = base.resolve(l)
		}
	}
	return Snapshot{
		StartingURL:      startingURL,
		LandingURL:       landingURL,
		RedirectionChain: chain,
		LoggedLinks:      doc.ResourceLinks,
		Title:            doc.Title,
		Text:             doc.Text,
		Copyright:        doc.Copyright,
		HREFLinks:        doc.HREFLinks,
		InputCount:       doc.InputCount,
		ImageCount:       doc.ImageCount,
		IFrameCount:      doc.IFrameCount,
	}
}

// ResolveRef resolves a possibly relative reference against base. It
// handles absolute URLs, scheme-relative (//host/..), absolute paths and
// relative paths; anything unresolvable is returned unchanged.
func ResolveRef(base, ref string) string {
	r := resolver{base: base}
	return r.resolve(ref)
}

// resolver is ResolveRef for one base and many references: the base is
// parsed once, when the first reference needs it.
type resolver struct {
	base             string
	parsed, ok       bool
	proto, fqdn, dir string
}

func (r *resolver) resolve(ref string) string {
	if ref == "" || strings.Contains(ref, "://") {
		return ref
	}
	if !r.parsed {
		r.parsed = true
		bp, err := urlx.Parse(r.base)
		if err == nil {
			r.ok, r.proto, r.fqdn, r.dir = true, bp.Protocol, bp.FQDN, "/"
			if r.proto == "" {
				r.proto = "http"
			}
			if i := strings.LastIndexByte(bp.Path, '/'); i >= 0 {
				r.dir = bp.Path[:i+1]
			}
		}
	}
	switch {
	case !r.ok:
		return ref
	case strings.HasPrefix(ref, "//"):
		return r.proto + ":" + ref
	case strings.HasPrefix(ref, "/"):
		return r.proto + "://" + r.fqdn + ref
	default:
		return r.proto + "://" + r.fqdn + r.dir + ref
	}
}

// DistID identifies one of the term distributions of Table I.
type DistID int

// The fourteen term distributions of Table I. DistText through DistExtLink
// (the first twelve in canonical order) are the ones used by feature set
// f2; DistCopyright and DistImage are used only by target identification.
const (
	DistText DistID = iota + 1
	DistTitle
	DistStart
	DistLand
	DistIntLog
	DistIntLink
	DistStartRDN
	DistLandRDN
	DistIntRDN
	DistExtRDN
	DistExtLog
	DistExtLink
	DistCopyright
	DistImage
)

// FeatureDistIDs lists, in canonical order, the twelve distributions used
// by feature set f2 (Table I minus copyright and image).
var FeatureDistIDs = []DistID{
	DistText, DistTitle, DistStart, DistLand,
	DistIntLog, DistIntLink, DistStartRDN, DistLandRDN,
	DistIntRDN, DistExtRDN, DistExtLog, DistExtLink,
}

// String returns the paper's name for the distribution (e.g. "Dtext").
func (d DistID) String() string {
	switch d {
	case DistText:
		return "Dtext"
	case DistTitle:
		return "Dtitle"
	case DistStart:
		return "Dstart"
	case DistLand:
		return "Dland"
	case DistIntLog:
		return "Dintlog"
	case DistIntLink:
		return "Dintlink"
	case DistStartRDN:
		return "Dstartrdn"
	case DistLandRDN:
		return "Dlandrdn"
	case DistIntRDN:
		return "Dintrdn"
	case DistExtRDN:
		return "Dextrdn"
	case DistExtLog:
		return "Dextlog"
	case DistExtLink:
		return "Dextlink"
	case DistCopyright:
		return "Dcopyright"
	case DistImage:
		return "Dimage"
	default:
		return "Dunknown"
	}
}

// Analysis is the derived, feature-ready view of a Snapshot.
//
// Analyses are pooled. Analyze takes one from the pool and refills the
// arrays it kept; Release, called by the analysis's owner once nothing
// reads it any more, hands it back. An analysis that is never released
// is an ordinary value the garbage collector reclaims.
type Analysis struct {
	// Snap is the analyzed snapshot.
	Snap *Snapshot
	// Start and Land are the parsed starting and landing URLs.
	Start, Land urlx.Parts
	// Chain holds the parsed redirection chain.
	Chain []urlx.Parts
	// ControlledRDNs is the set of RDNs appearing in the redirection
	// chain — assumed under the control of the page owner (§III-A).
	ControlledRDNs map[string]struct{}
	// IntLog/ExtLog are logged links classified internal/external;
	// IntLink/ExtLink likewise for HREF links.
	IntLog, ExtLog, IntLink, ExtLink []urlx.Parts

	dists [DistImage + 1]terms.Distribution // indexed by DistID

	// The arrays a reused analysis refills: parts is cut into Chain and
	// the four link lists, terms and probs into the distributions.
	parts []urlx.Parts
	terms []string
	probs []float64
}

var analysisPool = sync.Pool{New: func() any { return new(Analysis) }}

// Bounds on what a pooled Analysis keeps. A page with more URLs,
// distinct terms or controlled RDNs than these (a hostile one; crawled
// pages have a few hundred links and terms) is analysed into arrays of
// its own, and Release drops them instead of pooling them.
const (
	maxPooledParts = 1024 // ≈170 KB of urlx.Parts
	maxPooledTerms = 4096
	maxPooledRDNs  = 64
)

// Analyze parses and classifies every URL of the snapshot and computes all
// fourteen term distributions. The analysis comes from a pool; see
// Release for when its owner may return it.
func Analyze(s *Snapshot) *Analysis {
	a := analysisPool.Get().(*Analysis)
	a.fill(s)
	return a
}

// fill analyzes s into a, an analysis fresh from the pool or reset.
func (a *Analysis) fill(s *Snapshot) {
	a.Snap = s
	if a.ControlledRDNs == nil {
		a.ControlledRDNs = make(map[string]struct{})
	}
	a.Start, _ = urlx.Parse(s.StartingURL)
	a.Land, _ = a.parseURL(s.LandingURL)

	// One array for the chain and both link lists, each list in its own
	// part of it.
	nChain, nLog := len(s.RedirectionChain), len(s.LoggedLinks)
	if n := nChain + nLog + len(s.HREFLinks); cap(a.parts) < n {
		a.parts = make([]urlx.Parts, n)
	} else {
		a.parts = a.parts[:n]
	}
	n := 0
	for _, u := range s.RedirectionChain {
		if p, err := a.parseURL(u); err == nil {
			a.parts[n] = p
			n++
		}
	}
	if n > 0 {
		a.Chain = a.parts[:n:n]
	}
	for _, p := range a.Chain {
		if p.RDN != "" {
			a.ControlledRDNs[p.RDN] = struct{}{}
		}
	}
	// Defensive: the starting/landing RDNs are controlled even when the
	// chain omits them.
	if a.Start.RDN != "" {
		a.ControlledRDNs[a.Start.RDN] = struct{}{}
	}
	if a.Land.RDN != "" {
		a.ControlledRDNs[a.Land.RDN] = struct{}{}
	}

	links := a.parts[nChain:]
	a.IntLog, a.ExtLog = a.classify(links[:nLog:nLog], s.LoggedLinks)
	a.IntLink, a.ExtLink = a.classify(links[nLog:], s.HREFLinks)
	a.buildDistributions()
}

// Release returns a to the pool with its arrays zeroed, so that no
// snapshot or term string stays reachable from the pool — or drops it,
// when a page grew its arrays past the pooling bounds.
//
// Only the owner of an analysis releases it: the caller of Analyze that
// has not handed it on. After Release nothing may use a, nor hold the
// Dist(…).Terms() and Probs() slices or the Chain and link lists it
// gave out: the next Analyze refills them. The term strings themselves
// stay valid; their bytes are never reused.
func (a *Analysis) Release() {
	if cap(a.parts) > maxPooledParts || cap(a.terms) > maxPooledTerms || len(a.ControlledRDNs) > maxPooledRDNs {
		return
	}
	a.reset()
	analysisPool.Put(a)
}

// reset empties a, keeping its arrays and its map for the next fill.
func (a *Analysis) reset() {
	clear(a.parts)
	clear(a.terms)
	clear(a.probs)
	clear(a.ControlledRDNs)
	*a = Analysis{ControlledRDNs: a.ControlledRDNs, parts: a.parts[:0], terms: a.terms[:0], probs: a.probs[:0]}
}

// parseURL is urlx.Parse, except that the starting and the landing URL
// are not decomposed again: a chain repeats both, and pages link to
// themselves.
func (a *Analysis) parseURL(u string) (urlx.Parts, error) {
	switch {
	case u == a.Start.Raw && u != "":
		return a.Start, nil
	case u == a.Land.Raw && u != "":
		return a.Land, nil
	}
	return urlx.Parse(u)
}

// classify parses urls into dst, an array of len(urls), and splits them
// into internal and external links, each in input order: internal ones
// fill dst from the front and external ones from the back, and the
// back run is then reversed. Both lists are capacity-limited so an
// append to one cannot reach the other; a class without members is nil.
func (a *Analysis) classify(dst []urlx.Parts, urls []string) (internal, external []urlx.Parts) {
	in, ex := 0, len(dst)
	for _, u := range urls {
		p, err := a.parseURL(u)
		if err != nil {
			continue
		}
		if a.isInternal(p) {
			dst[in] = p
			in++
		} else {
			ex--
			dst[ex] = p
		}
	}
	slices.Reverse(dst[ex:])
	if in > 0 {
		internal = dst[:in:in]
	}
	if ex < len(dst) {
		external = dst[ex:len(dst):len(dst)]
	}
	return internal, external
}

// isInternal classifies a URL as internal when its RDN belongs to the
// controlled set. IP-literal links are internal only when the landing URL
// uses the same host.
func (a *Analysis) isInternal(p urlx.Parts) bool {
	if p.IsIP {
		return p.FQDN == a.Land.FQDN
	}
	if p.RDN == "" {
		return false
	}
	_, ok := a.ControlledRDNs[p.RDN]
	return ok
}

// Dist returns the term distribution identified by id; an id outside
// Table I reads as the empty distribution.
func (a *Analysis) Dist(id DistID) terms.Distribution {
	if id < 0 || int(id) >= len(a.dists) {
		return terms.Distribution{}
	}
	return a.dists[id]
}

// buildDistributions feeds the sources of Table I, in DistID order,
// through one pooled builder; the fourteen distributions are built
// together and share the analysis's term and probability arrays.
func (a *Analysis) buildDistributions() {
	b := terms.AcquireBuilder()
	defer b.Release()
	for id := DistText; id <= DistImage; id++ {
		a.addSource(b, id)
		b.Next()
	}
	a.terms, a.probs = b.BuildAllInto(a.dists[DistText:], a.terms, a.probs)
}

// addSource adds the terms of distribution id's source to b.
func (a *Analysis) addSource(b *terms.Builder, id DistID) {
	switch id {
	case DistText:
		b.Add(a.Snap.Text)
	case DistTitle:
		b.Add(a.Snap.Title)
	case DistCopyright:
		b.Add(a.Snap.Copyright)
	case DistImage:
		for _, s := range a.Snap.ScreenshotTerms {
			b.Add(s)
		}
	case DistStart:
		addFreeURL(b, a.Start)
	case DistLand:
		addFreeURL(b, a.Land)
	case DistIntLog:
		addFreeURL(b, a.IntLog...)
	case DistIntLink:
		addFreeURL(b, a.IntLink...)
	case DistExtLog:
		addFreeURL(b, a.ExtLog...)
	case DistExtLink:
		addFreeURL(b, a.ExtLink...)
	// RDN distributions decode punycode first: an IDN homograph domain
	// ("xn--pypal-…") contributes the terms of its unicode form, which
	// the §III-B canonicalization folds back to base letters —
	// recovering the brand term the homograph hides.
	case DistStartRDN:
		b.Add(a.Start.UnicodeRDN())
	case DistLandRDN:
		b.Add(a.Land.UnicodeRDN())
	case DistIntRDN:
		// RDNs of internal links, both HREF and logged (Table I).
		addRDNs(b, a.IntLog)
		addRDNs(b, a.IntLink)
	case DistExtRDN:
		// RDNs of external logged links (Table I).
		addRDNs(b, a.ExtLog)
	}
}

// addFreeURL adds the FreeURL terms of ps component-wise: FreeURL joins
// subdomains, path and query with a space, which splits terms exactly
// as the end of a component does, so the joined string is never built.
func addFreeURL(b *terms.Builder, ps ...urlx.Parts) {
	for i := range ps {
		b.Add(ps[i].Subdomains)
		b.Add(ps[i].Path)
		b.Add(ps[i].Query)
	}
}

func addRDNs(b *terms.Builder, ps []urlx.Parts) {
	for i := range ps {
		b.Add(ps[i].RDN)
	}
}
