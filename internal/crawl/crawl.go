// Package crawl is the scraper of the reproduction: it visits a starting
// URL in the synthetic web, follows redirects, and records the data
// sources of Section II-C into a webpage.Snapshot — the role Selenium plus
// a monitored Firefox plays in the paper's experimental setup (Section
// VI-A). IFrame content is folded into the page's own sources, as the
// paper does.
package crawl

import (
	"errors"
	"fmt"

	"knowphish/internal/htmlx"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// Fetcher resolves URLs to pages. webgen.World and webgen.Site both
// satisfy it.
type Fetcher interface {
	Fetch(url string) (*webgen.Page, bool)
}

// Compose layers fetchers; earlier fetchers win.
func Compose(fetchers ...Fetcher) Fetcher {
	return composite(fetchers)
}

type composite []Fetcher

func (c composite) Fetch(url string) (*webgen.Page, bool) {
	for _, f := range c {
		if f == nil {
			continue
		}
		if p, ok := f.Fetch(url); ok {
			return p, true
		}
	}
	return nil, false
}

// Limits and errors of the crawler.
const maxRedirects = 10

// Sentinel errors returned by Visit.
var (
	ErrNotFound      = errors.New("crawl: page not found")
	ErrRedirectLoop  = errors.New("crawl: too many redirects")
	ErrEmptyStartURL = errors.New("crawl: empty start URL")
)

// Visit loads startURL from f, following redirects, and returns the
// snapshot a browser would record.
func Visit(f Fetcher, startURL string) (*webpage.Snapshot, error) {
	if startURL == "" {
		return nil, ErrEmptyStartURL
	}
	chain := []string{startURL}
	cur := startURL
	var page *webgen.Page
	for hop := 0; ; hop++ {
		if hop > maxRedirects {
			return nil, fmt.Errorf("%w: chain %v", ErrRedirectLoop, chain)
		}
		p, ok := f.Fetch(cur)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, cur)
		}
		if p.RedirectTo == "" {
			page = p
			break
		}
		cur = p.RedirectTo
		chain = append(chain, cur)
	}

	doc := htmlx.Parse(page.HTML)
	snap := webpage.FromDoc(doc, startURL, cur, chain)
	snap.ScreenshotTerms = append(snap.ScreenshotTerms, page.ScreenshotText...)

	// Fold fetchable iframe content into the page's sources: the paper
	// treats HTML of IFrames included in the page as part of the page.
	for _, src := range doc.IFrameSrcs {
		resolved := webpage.ResolveRef(cur, src)
		fp, ok := f.Fetch(resolved)
		if !ok || fp.RedirectTo != "" {
			continue
		}
		inner := htmlx.Parse(fp.HTML)
		if inner.Text != "" {
			snap.Text += " " + inner.Text
		}
		for _, l := range inner.HREFLinks {
			snap.HREFLinks = append(snap.HREFLinks, webpage.ResolveRef(resolved, l))
		}
		for _, l := range inner.ResourceLinks {
			snap.LoggedLinks = append(snap.LoggedLinks, webpage.ResolveRef(resolved, l))
		}
		snap.InputCount += inner.InputCount
		snap.ImageCount += inner.ImageCount
	}
	return &snap, nil
}

// VisitSite loads a generated site, composing the site's own pages with
// the world's persistent pages (brand sites) so redirects into either
// resolve. The returned snapshot carries the site's language tag.
func VisitSite(w *webgen.World, site *webgen.Site) (*webpage.Snapshot, error) {
	snap, err := Visit(Compose(site, w), site.StartURL)
	if err != nil {
		return nil, fmt.Errorf("visiting %s site %s: %w", site.Kind, site.StartURL, err)
	}
	snap.Language = string(site.Lang)
	return snap, nil
}
