package urlx_test

import (
	"math/rand"
	"strings"
	"testing"

	"knowphish/internal/htmlx"
	"knowphish/internal/urlx"
	"knowphish/internal/webgen"
)

// seedURLs are hand-written obfuscation patterns (the Section VII-B
// evasions: userinfo tricks, IP hosts, deep subdomain nesting) plus the
// hosts the label arithmetic is most likely to get wrong: empty labels,
// trailing dots, wildcard and exception suffix rules, near-IP hosts.
var seedURLs = []string{
	"https://www.amazon.co.uk/gp/help?x=1#frag",
	"http://paypal.com@evil.example/login",
	"http://xn--papal-4ve.com/signin",
	"xn--e1awd7f.xn--p1ai",
	"https://login.bank.com.secure-verify.evil.example/session?id=9",
	"http://192.168.0.1:8080/admin",
	"http://[::1]:443/",
	"HTTP://MIXED.Case.Example.COM.",
	"//scheme-relative.example/path",
	"co.uk",
	"http://a..b/",
	"?query-only",
	"http://host:99999/overflow-port",
	"xn--",
	"http://xn--0.example/",
	"example.com",
	"http://login.bank.example.com:8080/a",
	"https://example.org?x=1",
	"http://a.b.c.d.example.co.uk/",
	"http://0../",
	"http://.a.com/",
	"http://a.com.../x",
	"http://foo.bar.ck/",
	"http://www.ck/",
	"http://ck/",
	"http://a.b.x.bd/",
	"http://bd/",
	"http://256.1.1.1/",
	"http://1.2.3.4.5/",
	"http://1.2.3./",
	"http://1..2.3/",
	"http://0001.2.3.4/",
	"http://12.34.56.com/",
	"http://İstanbul.Example.COM/",
	"http://\xff.example.com/",
	"http://localhost/",
}

// homographURLs returns IDN-homograph typosquats generated by the
// synthetic world — the same corpus internal/webgen/homograph_test.go
// exercises — because punycode decoding is the most delicate code path
// Parse feeds (rate ~0.12 per typosquat draw; 200 tries make a miss
// statistically impossible).
func homographURLs() []string {
	w := webgen.New(webgen.Config{Seed: 7, Brands: 30, RankedGenerics: 30, VocabularyWords: 60})
	rng := rand.New(rand.NewSource(8))
	var urls []string
	for i := 0; i < 200 && len(urls) < 16; i++ {
		site := w.NewPhishSite(rng, webgen.PhishOptions{Hosting: webgen.HostTyposquat})
		if strings.Contains(site.StartURL, urlx.ACEPrefix) {
			urls = append(urls, site.StartURL)
		}
	}
	return urls
}

// TestParseMatchesReference compares Parse and PublicSuffix with the
// Split/Join implementation they replaced (reference_test.go) on the
// seed table and on every URL of generated phishing and legitimate
// sites: start URLs, page URLs and the links inside the pages.
func TestParseMatchesReference(t *testing.T) {
	urls := append(append([]string(nil), seedURLs...), homographURLs()...)
	w := webgen.New(webgen.Config{Seed: 7, Brands: 30, RankedGenerics: 30, VocabularyWords: 60})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		site := w.NewPhishSite(rng, webgen.PhishOptions{})
		if i%2 == 0 {
			site = w.NewLegitSite(rng, webgen.LegitOptions{})
		}
		urls = append(urls, site.StartURL)
		for u, p := range site.Pages {
			urls = append(urls, u, p.RedirectTo)
			doc := htmlx.Parse(p.HTML)
			urls = append(urls, doc.HREFLinks...)
			urls = append(urls, doc.ResourceLinks...)
		}
	}
	if len(urls) < 500 {
		t.Fatalf("only %d URLs to compare", len(urls))
	}
	for _, raw := range urls {
		got, err := urlx.Parse(raw)
		want, werr := urlx.ReferenceParse(raw)
		if got != want || (err == nil) != (werr == nil) {
			t.Errorf("Parse(%q)\n got %+v (%v)\nwant %+v (%v)", raw, got, err, want, werr)
		}
		if g, w := urlx.DefaultPSL().PublicSuffix(got.FQDN), urlx.ReferencePublicSuffix(got.FQDN); g != w {
			t.Errorf("PublicSuffix(%q) = %q, reference %q", got.FQDN, g, w)
		}
	}
}

// FuzzParse drives the URL decomposition with adversarial input, seeded
// with seedURLs and homographURLs. Every input must decompose exactly
// as the reference implementation does, and keep the Fig. 1 invariants.
func FuzzParse(f *testing.F) {
	for _, seed := range seedURLs {
		f.Add(seed)
	}
	for _, u := range homographURLs() {
		f.Add(u)
	}

	f.Fuzz(func(t *testing.T, raw string) {
		p, err := urlx.Parse(raw)
		if want, werr := urlx.ReferenceParse(raw); p != want || (err == nil) != (werr == nil) {
			t.Fatalf("Parse(%q)\n got %+v (%v)\nreference %+v (%v)", raw, p, err, want, werr)
		}
		if err != nil {
			// The only contractual error is blank input.
			if strings.TrimSpace(raw) != "" {
				t.Fatalf("Parse(%q) = %v for non-blank input", raw, err)
			}
			return
		}
		// Determinism: parsing is a pure function of the input.
		p2, err2 := urlx.Parse(raw)
		if err2 != nil || p2 != p {
			// Parts is comparable only field-by-field on slices — it has
			// none, so struct equality is exact.
			t.Fatalf("Parse(%q) not deterministic: %+v vs %+v (%v)", raw, p, p2, err2)
		}
		// Structural invariants of the Fig. 1 decomposition.
		if p.RDN != "" {
			if p.FQDN != p.RDN && !strings.HasSuffix(p.FQDN, "."+p.RDN) {
				t.Errorf("RDN %q is not a label suffix of FQDN %q (raw %q)", p.RDN, p.FQDN, raw)
			}
			want := p.MLD
			if p.PublicSuffix != "" {
				want = p.MLD + "." + p.PublicSuffix
			}
			if p.RDN != want {
				t.Errorf("RDN %q != MLD+PS %q (raw %q)", p.RDN, want, raw)
			}
			if strings.Contains(p.MLD, ".") {
				t.Errorf("MLD %q contains a dot (raw %q)", p.MLD, raw)
			}
		}
		if p.Subdomains != "" {
			if p.RDN == "" {
				t.Errorf("subdomains %q without an RDN (raw %q)", p.Subdomains, raw)
			} else if p.Subdomains+"."+p.RDN != p.FQDN {
				t.Errorf("subdomains %q + RDN %q != FQDN %q (raw %q)", p.Subdomains, p.RDN, p.FQDN, raw)
			}
		}
		if p.IsIP && p.RDN != "" {
			t.Errorf("IP-literal host with RDN %q (raw %q)", p.RDN, raw)
		}
		if p.Path != "" && p.Path[0] != '/' {
			t.Errorf("path %q does not start with / (raw %q)", p.Path, raw)
		}
		if n := p.LevelDomains(); n < 0 {
			t.Errorf("LevelDomains = %d (raw %q)", n, raw)
		}
		// Derived views must never panic, whatever the input looked
		// like — homograph decoding included.
		_ = p.FreeURL()
		_ = p.UnicodeMLD()
		_ = urlx.DecodeHost(p.FQDN)
		// A reassembled canonical form must itself be parseable.
		if s := p.String(); strings.TrimSpace(s) != "" {
			if _, err := urlx.Parse(s); err != nil {
				t.Errorf("Parse(String() = %q) failed: %v (raw %q)", s, err, raw)
			}
		}
	})
}
