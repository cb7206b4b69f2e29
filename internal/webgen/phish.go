package webgen

import (
	"fmt"
	"math/rand"
	"strings"

	"knowphish/internal/urlx"
)

// HostingKind is where/how a phishing page is hosted — the axis that
// controls how the landing RDN relates to the target (Section II-A: own
// server with a registered throwaway domain, someone else's compromised
// server, a typosquatted domain, or a bare IP address).
type HostingKind int

// Hosting kinds.
const (
	// HostCompromised serves the phish from a legitimate but hijacked
	// generic site; the RDN is unrelated to the target.
	HostCompromised HostingKind = iota + 1
	// HostDedicated uses a freshly registered obfuscated domain
	// ("secure-account-verify.xyz").
	HostDedicated
	// HostTyposquat registers a near-miss of the target's domain; brand
	// terms may survive in the mld, the paper's hard case.
	HostTyposquat
	// HostIP serves from a bare IP address (Section VII-B: recall on
	// these was only 0.76).
	HostIP
)

func (h HostingKind) String() string {
	switch h {
	case HostCompromised:
		return "compromised"
	case HostDedicated:
		return "dedicated"
	case HostTyposquat:
		return "typosquat"
	case HostIP:
		return "ip"
	default:
		return "unknown"
	}
}

// PhishOptions selects the construction techniques of one phishing page.
type PhishOptions struct {
	// Target is the mimicked brand; nil picks one weighted by category.
	Target *Brand
	// Hosting selects the hosting kind; zero value picks realistically.
	Hosting HostingKind
	// UseShortener routes the starting URL through a URL shortener,
	// lengthening the redirection chain.
	UseShortener bool
	// MinimalText strips the body text down to a few terms (evasion
	// technique of Section VII-C).
	MinimalText bool
	// ImageOnly renders all content as imagery: empty text, everything
	// in the screenshot layer (Section VII-C).
	ImageOnly bool
	// NoExternalLinks avoids linking/loading anything from the target
	// (evasion technique of Section VII-C).
	NoExternalLinks bool
	// Stealth builds the hardest positive: a kit on a compromised site
	// that keeps the host's content and navigation, uses a clean URL
	// (no brand path, no query), and loads nothing from the target —
	// only the lure text/title and the credential form remain.
	Stealth bool
	// MisspelledLure spells the brand with typosquatted terms
	// ("paypaI"), defeating term-based consistency checks (the paper's
	// §VII-C evasion) and hiding the target from keyterm search.
	MisspelledLure bool
	// Lang is the lure language (default English).
	Lang Language
}

// targetWeights biases target choice toward financial brands, matching
// APWG sector statistics.
var targetWeights = map[BrandCategory]int{
	CategoryBank:     6,
	CategoryPayment:  6,
	CategoryEmail:    3,
	CategorySocial:   2,
	CategoryCommerce: 3,
	CategoryCloud:    1,
	CategoryTelecom:  1,
	CategoryGaming:   1,
}

// RandomPhishOptions draws a realistic technique mixture: mostly
// compromised or dedicated hosting, occasional typosquats, rare IP
// hosting (<2% of the paper's URLs were IP-based), some shorteners and
// evasion attempts.
func (w *World) RandomPhishOptions(rng *rand.Rand) PhishOptions {
	var opts PhishOptions
	switch r := rng.Float64(); {
	case r < 0.45:
		opts.Hosting = HostCompromised
	case r < 0.80:
		opts.Hosting = HostDedicated
	case r < 0.98:
		opts.Hosting = HostTyposquat
	default:
		opts.Hosting = HostIP
	}
	opts.UseShortener = rng.Float64() < 0.25
	opts.MinimalText = rng.Float64() < 0.12
	opts.ImageOnly = rng.Float64() < 0.05
	opts.NoExternalLinks = rng.Float64() < 0.08
	opts.Stealth = rng.Float64() < 0.025
	opts.MisspelledLure = rng.Float64() < 0.06
	// PhishTank feeds are multilingual; most lures are English.
	if rng.Float64() < 0.25 {
		opts.Lang = Languages[rng.Intn(len(Languages))]
	} else {
		opts.Lang = English
	}
	return opts
}

// pickTarget draws a brand weighted by category attractiveness.
func (w *World) pickTarget(rng *rand.Rand) *Brand {
	total := 0
	for _, b := range w.Brands {
		total += targetWeights[b.Category]
	}
	n := rng.Intn(total)
	for _, b := range w.Brands {
		n -= targetWeights[b.Category]
		if n < 0 {
			return b
		}
	}
	return w.Brands[len(w.Brands)-1]
}

// homographCyrillic maps Latin letters to their visually identical
// Cyrillic twins (the classic IDN homograph alphabet).
var homographCyrillic = map[rune]rune{
	'a': 'а', 'e': 'е', 'o': 'о', 'p': 'р', 'c': 'с', 'x': 'х', 'i': 'і',
}

// homographMLD swaps one letter of mld for a Cyrillic look-alike and
// returns the punycode (registrable) form; ok is false when mld has no
// confusable letter.
func homographMLD(rng *rand.Rand, mld string) (string, bool) {
	runes := []rune(mld)
	var candidates []int
	for i, r := range runes {
		if _, ok := homographCyrillic[r]; ok {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	i := candidates[rng.Intn(len(candidates))]
	runes[i] = homographCyrillic[runes[i]]
	return urlx.EncodeHost(string(runes)), true
}

var digitLookAlikes = strings.NewReplacer("l", "1", "o", "0", "e", "3", "i", "1")

// typosquat derives a near-miss of mld: character swap, doubling,
// omission, or digit substitution.
func typosquat(rng *rand.Rand, mld string) string {
	if len(mld) < 4 {
		return mld + "s"
	}
	i := 1 + rng.Intn(len(mld)-2)
	switch rng.Intn(5) {
	case 0: // double a letter
		return mld[:i] + mld[i:i+1] + mld[i:]
	case 1: // drop a letter
		return mld[:i] + mld[i+1:]
	case 2: // swap adjacent
		b := []byte(mld)
		b[i], b[i-1] = b[i-1], b[i]
		return string(b)
	case 3: // digit look-alike
		squatted := digitLookAlikes.Replace(mld)
		if squatted == mld {
			return mld + fmt.Sprintf("%d", rng.Intn(10))
		}
		return squatted
	default: // hyphenate with a service word
		return mld + "-" + pick(rng, []string{"secure", "login", "verify", "online", "account"})
	}
}

// phishHost builds the landing host parts for the chosen hosting kind:
// the scheme host (FQDN), the RDN (empty for IP), and — for compromised
// hosts — the hijacked site's own name terms.
func (w *World) phishHost(rng *rand.Rand, opts PhishOptions, target *Brand) (fqdn, rdn string, hostTerms []string) {
	v := w.vocabFor(English)
	switch opts.Hosting {
	case HostCompromised:
		// Hijacked generic site: unrelated, occasionally even ranked.
		var g rankedGeneric
		if rng.Float64() < 0.10 || opts.Stealth {
			pool := w.rankedRDN[English]
			g = pool[rng.Intn(len(pool))]
		} else {
			g = w.newGenericRDN(rng, v)
		}
		rdn = g.rdn
		hostTerms = g.terms
		fqdn = rdn
		if rng.Float64() < 0.4 {
			fqdn = "www." + rdn
		}
	case HostDedicated:
		words := []string{pick(rng, v.service), pick(rng, v.service)}
		mld := strings.Join(words, "-")
		if rng.Float64() < 0.4 {
			mld += fmt.Sprintf("-%d", rng.Intn(1000))
		}
		rdn = mld + "." + pick(rng, []string{"com", "net", "info", "xyz", "top", "online", "site"})
		fqdn = rdn
		// Subdomain obfuscation: target's domain spelled into the
		// subdomains ("www.novabank.com.secure-login-77.xyz").
		if rng.Float64() < 0.55 {
			fqdn = "www." + target.RDN() + "." + rdn
		}
	case HostTyposquat:
		mld := typosquat(rng, target.MLD)
		if squatted, ok := homographMLD(rng, target.MLD); ok && rng.Float64() < 0.12 {
			// IDN homograph attack: the registered domain is the
			// punycode form of a look-alike unicode name.
			mld = squatted
		}
		rdn = mld + "." + pick(rng, []string{"com", "net", "org", "info"})
		fqdn = rdn
		if rng.Float64() < 0.5 {
			fqdn = "www." + rdn
		}
	case HostIP:
		fqdn = fmt.Sprintf("%d.%d.%d.%d", 11+rng.Intn(180), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
		rdn = ""
	default:
		return w.phishHost(rng, PhishOptions{Hosting: HostDedicated}, target)
	}
	return fqdn, rdn, nil
}

// NewPhishSite generates one phishing page per opts.
func (w *World) NewPhishSite(rng *rand.Rand, opts PhishOptions) *Site {
	if opts.Lang == "" {
		opts.Lang = English
	}
	if opts.Stealth {
		// Stealth implies a compromised host that keeps its content;
		// the kit still loads the brand logo and may keep a link or two
		// — exactly the profile of a legitimate merchant checkout page.
		opts.Hosting = HostCompromised
		opts.ImageOnly = false
		opts.MinimalText = false
	}
	if opts.Hosting == 0 {
		opts.Hosting = HostDedicated
	}
	target := opts.Target
	if target == nil {
		target = w.pickTarget(rng)
	}
	v := w.vocabFor(opts.Lang)
	enV := w.vocabFor(English)

	fqdn, rdn, hostTerms := w.phishHost(rng, opts, target)
	https := rng.Float64() < 0.18
	if opts.Stealth {
		https = rng.Float64() < 0.5
	}
	proto := "http"
	if https {
		proto = "https"
	}
	base := proto + "://" + fqdn

	// Landing path: long, term-heavy, brand-obfuscated FreeURL —
	// except for stealth kits, which hide behind an ordinary-looking
	// path. Misspelled lures typosquat the URL path too.
	pathTerms := target.Terms
	if opts.MisspelledLure {
		squatted := make([]string, len(pathTerms))
		for i, t := range pathTerms {
			squatted[i] = typosquat(rng, t)
		}
		pathTerms = squatted
	}
	brandPath := strings.Join(pathTerms, "-")
	var pathParts []string
	if opts.Hosting == HostCompromised && !opts.Stealth {
		// Phish kits drop into odd corners of hijacked sites.
		pathParts = append(pathParts, pick(rng, []string{"~files", "wp-content", "images", "tmp", "old"}))
	}
	if rng.Float64() < 0.8 && !opts.Stealth {
		pathParts = append(pathParts, brandPath)
	}
	pathParts = append(pathParts, pick(rng, enV.service))
	if rng.Float64() < 0.6 && !opts.Stealth {
		pathParts = append(pathParts, pick(rng, enV.service)+".php")
	}
	landPath := "/" + strings.Join(pathParts, "/")
	query := ""
	if rng.Float64() < 0.5 && !opts.Stealth {
		query = fmt.Sprintf("?cmd=%s&dispatch=%x", pick(rng, enV.service), rng.Int63())
	}
	landURL := base + landPath + query

	// Content: mimic the target. A misspelled lure spells the brand
	// with look-alike typos, which destroys term matches.
	brandTerms := target.Terms
	brandName := target.Name
	if opts.MisspelledLure {
		misspelled := make([]string, len(brandTerms))
		for i, t := range brandTerms {
			misspelled[i] = typosquat(rng, t)
		}
		brandTerms = misspelled
		brandName = titleCase(strings.Join(misspelled, ""))
	}
	brandPhrase := strings.Join(brandTerms, " ") + " " + brandName
	nameTitle := brandName
	title := fmt.Sprintf("%s — %s", nameTitle, titleCase(pick(rng, v.service)))
	if rng.Float64() < 0.25 {
		title = nameTitle + " " + titleCase(pick(rng, v.service)+" "+pick(rng, v.service))
	}
	if opts.Stealth && len(hostTerms) > 0 && rng.Float64() < 0.5 {
		// The stealthiest kits keep the hijacked site's own title and
		// put the lure only in the body — trading lure quality for
		// evasion, as Section VII-C describes.
		title = titleCase(strings.Join(hostTerms, " ")) + " — " + titleCase(pick(rng, v.service))
	}

	// Some lures invoke a second brand ("pay with X to verify your Y
	// account"), which muddies target ranking (top-1 vs top-3 in
	// Table IX).
	var secondary *Brand
	if opts.Target == nil && rng.Float64() < 0.12 {
		secondary = w.pickTarget(rng)
		if secondary.MLD == target.MLD {
			secondary = nil
		}
	}

	var paras []string
	textLen := 15 + rng.Intn(50)
	if opts.MinimalText {
		textLen = 3 + rng.Intn(6)
	}
	if !opts.ImageOnly {
		p1 := fmt.Sprintf("%s %s", brandPhrase, v.sentence(rng, textLen/2))
		p2 := fmt.Sprintf("%s %s %s", pick(rng, v.service), v.sentence(rng, textLen/2), brandPhrase)
		paras = []string{p1, p2}
		if opts.MinimalText {
			paras = []string{fmt.Sprintf("%s %s", brandPhrase, pick(rng, v.service))}
		}
		if opts.Stealth {
			// A stealth kit names the brand once, at checkout-page
			// density, not lure density.
			paras = []string{fmt.Sprintf("%s %s %s", pick(rng, v.service), brandPhrase, pick(rng, v.service))}
		}
	}
	if secondary != nil && !opts.ImageOnly {
		paras = append(paras, fmt.Sprintf("%s %s %s %s",
			pick(rng, v.service), secondary.Name,
			strings.Join(secondary.Terms, " "), pick(rng, v.service)))
	}
	// Lures also spell out the target's address ("log in at
	// novabank.com"), as real kits do.
	if !opts.ImageOnly && !opts.MisspelledLure && rng.Float64() < 0.3 {
		paras = append(paras, fmt.Sprintf("%s %s %s", pick(rng, v.service), target.RDN(), pick(rng, v.service)))
	}
	// A kit dropped into a hijacked site often leaves the host's own
	// content around it (navigation, footer, sidebar) — the hard-positive
	// case where the page text looks partly legitimate.
	hostContent := opts.Hosting == HostCompromised && !opts.ImageOnly && (opts.Stealth || rng.Float64() < 0.6)
	if hostContent {
		hv := w.vocabFor(opts.Lang)
		hostPara := hv.sentence(rng, 20+rng.Intn(60))
		if len(hostTerms) > 0 {
			// The host site's own name survives in its footer and
			// navigation, so the landing mld does appear in the text —
			// the legitimate-page signature (f3) fires on this phish.
			hostPara = strings.Join(hostTerms, "") + " " + hostPara + " " + strings.Join(hostTerms, " ")
		}
		paras = append(paras, hostPara)
	}

	// Links: external HREFs point at the real target (outside the
	// phisher's control, the paper's core structural signal).
	targetBase := "https://www." + target.RDN()
	var links []hyperlink
	if !opts.NoExternalLinks {
		nTargetLinks := 2 + rng.Intn(5)
		if opts.Stealth {
			// A stealth kit keeps at most a couple of brand links —
			// the same count a checkout page has.
			nTargetLinks = 1 + rng.Intn(2)
		}
		paths := brandServicePaths[target.Category]
		for i := 0; i < nTargetLinks; i++ {
			links = append(links, hyperlink{
				href:   targetBase + "/" + pick(rng, paths),
				anchor: titleCase(pick(rng, enV.service)),
			})
		}
	}
	if secondary != nil && !opts.NoExternalLinks && rng.Float64() < 0.5 {
		links = append(links, hyperlink{
			href:   "https://www." + secondary.RDN() + "/" + pick(rng, brandServicePaths[secondary.Category]),
			anchor: secondary.Name,
		})
	}
	// A few internal anchors (kit navigation).
	for i := 0; i < rng.Intn(3); i++ {
		links = append(links, hyperlink{href: base + "/" + pick(rng, enV.service), anchor: titleCase(pick(rng, v.service))})
	}
	if hostContent {
		// The hijacked site's own navigation survives: internal links
		// with the host's vocabulary, raising the internal-link ratio.
		hv := w.vocabFor(opts.Lang)
		for i := 0; i < 3+rng.Intn(5); i++ {
			links = append(links, hyperlink{
				href:   base + "/" + pick(rng, hv.common),
				anchor: titleCase(pick(rng, hv.common)),
			})
		}
		if opts.Stealth && rng.Float64() < 0.5 {
			// The host's outbound links survive too.
			links = append(links, hyperlink{
				href:   w.randomExternalSite(rng, opts.Lang),
				anchor: titleCase(pick(rng, hv.common)),
			})
		}
	}

	// Resources: logo/css lifted straight from the target plus own kit
	// assets.
	var images, scripts, styles []string
	if !opts.NoExternalLinks {
		images = append(images, targetBase+"/static/logo.png")
		if rng.Float64() < 0.6 {
			styles = append(styles, targetBase+"/static/site.css")
		}
	}
	images = append(images, base+"/kit/header.jpg")
	if opts.ImageOnly {
		// Whole page body is one big screenshot of the target.
		images = append(images, base+"/kit/page.jpg")
	}
	scripts = append(scripts, base+"/kit/validate.js")

	// Credential form: the point of the page.
	inputs := []string{"text", "password"}
	extraInputs := rng.Intn(3)
	for i := 0; i < extraInputs; i++ {
		inputs = append(inputs, pick(rng, []string{"text", "password", "tel", "email"}))
	}
	form := &formSpec{action: base + "/" + pick(rng, enV.service) + ".php", inputs: inputs}

	var iframes []string
	if rng.Float64() < 0.2 && !opts.NoExternalLinks {
		iframes = append(iframes, targetBase+"/"+pick(rng, brandServicePaths[target.Category]))
	}

	var copyright string
	switch {
	case opts.Stealth && len(hostTerms) > 0 && rng.Float64() < 0.5:
		// Stealth kits inherit the hijacked site's footer.
		copyright = fmt.Sprintf("© 2014 %s", titleCase(strings.Join(hostTerms, " ")))
	case rng.Float64() < 0.6:
		copyright = fmt.Sprintf("© 2015 %s Inc. All rights reserved.", nameTitle)
	}

	spec := pageSpec{
		title:      title,
		headings:   []string{nameTitle},
		paragraphs: paras,
		links:      links,
		scripts:    scripts,
		styles:     styles,
		images:     images,
		iframes:    iframes,
		form:       form,
		copyright:  copyright,
		logoText:   brandPhrase,
	}
	if opts.ImageOnly {
		// Screenshot shows the mimicked content even though HTML has none.
		spec.logoText = brandPhrase + " " + pick(rng, v.service) + " " + pick(rng, v.service)
	}

	site := &Site{
		StartURL:  landURL,
		Pages:     map[string]*Page{},
		Kind:      KindPhish,
		Lang:      opts.Lang,
		RDN:       rdn,
		IsPhish:   true,
		TargetMLD: target.MLD,
		TargetRDN: target.RDN(),
	}
	site.Pages[landURL] = &Page{
		URL:            landURL,
		HTML:           renderHTML(spec),
		ScreenshotText: spec.screenshotText(),
	}

	if opts.UseShortener {
		short := "http://" + pick(rng, w.shorteners) + "/" + shortToken(rng)
		site.StartURL = short
		site.Pages[short] = &Page{URL: short, RedirectTo: landURL}
	} else if rng.Float64() < 0.2 {
		// Kit-internal redirect: index.php → full obfuscated path.
		entry := base + "/" + pick(rng, enV.service)
		if entry != landURL {
			site.StartURL = entry
			site.Pages[entry] = &Page{URL: entry, RedirectTo: landURL}
		}
	}
	return site
}

// NewClonePhishSite generates the limit-case evasion of Section VII-C: a
// phishing page that is an exact clone of a legitimate merchant-checkout
// page, hosted on a compromised ordinary site, with the stolen
// credentials exfiltrated server-side. Every data source a browser
// observes is indistinguishable from the legitimate original; only the
// ground-truth label differs. These pages bound achievable recall and are
// the principled source of detector misses in the synthetic world.
func (w *World) NewClonePhishSite(rng *rand.Rand) *Site {
	for attempt := 0; attempt < 20; attempt++ {
		site := w.newGenericSite(rng, LegitOptions{Lang: English, MerchantCheckout: true})
		if site.embeddedBrand == nil {
			continue
		}
		site.Kind = KindPhish
		site.IsPhish = true
		site.TargetMLD = site.embeddedBrand.MLD
		site.TargetRDN = site.embeddedBrand.RDN()
		return site
	}
	// Fallback (never expected): an ordinary stealth phish.
	return w.NewPhishSite(rng, PhishOptions{Stealth: true})
}

func shortToken(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	n := 5 + rng.Intn(3)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}
