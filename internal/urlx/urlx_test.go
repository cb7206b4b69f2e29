package urlx

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePaperExample(t *testing.T) {
	// The worked example from Section II-B of the paper.
	p := MustParse("https://www.amazon.co.uk/ap/signin?_encoding=UTF8")
	if p.Protocol != "https" {
		t.Errorf("Protocol = %q, want https", p.Protocol)
	}
	if p.FQDN != "www.amazon.co.uk" {
		t.Errorf("FQDN = %q, want www.amazon.co.uk", p.FQDN)
	}
	if p.RDN != "amazon.co.uk" {
		t.Errorf("RDN = %q, want amazon.co.uk", p.RDN)
	}
	if p.MLD != "amazon" {
		t.Errorf("MLD = %q, want amazon", p.MLD)
	}
	if p.PublicSuffix != "co.uk" {
		t.Errorf("PublicSuffix = %q, want co.uk", p.PublicSuffix)
	}
	if p.Subdomains != "www" {
		t.Errorf("Subdomains = %q, want www", p.Subdomains)
	}
	if p.Path != "/ap/signin" {
		t.Errorf("Path = %q, want /ap/signin", p.Path)
	}
	if p.Query != "_encoding=UTF8" {
		t.Errorf("Query = %q, want _encoding=UTF8", p.Query)
	}
	free := p.FreeURL()
	for _, want := range []string{"www", "/ap/signin", "_encoding=UTF8"} {
		if !strings.Contains(free, want) {
			t.Errorf("FreeURL() = %q, missing %q", free, want)
		}
	}
	if strings.Contains(free, "amazon") {
		t.Errorf("FreeURL() = %q must not contain the RDN", free)
	}
}

func TestParseVariants(t *testing.T) {
	tests := []struct {
		name string
		raw  string
		want Parts
	}{
		{
			name: "bare domain",
			raw:  "example.com",
			want: Parts{FQDN: "example.com", RDN: "example.com", MLD: "example", PublicSuffix: "com"},
		},
		{
			name: "http with port",
			raw:  "http://login.bank.example.com:8080/a",
			want: Parts{Protocol: "http", FQDN: "login.bank.example.com", Subdomains: "login.bank", RDN: "example.com", MLD: "example", PublicSuffix: "com", Path: "/a", Port: "8080"},
		},
		{
			name: "query only",
			raw:  "https://example.org?x=1",
			want: Parts{Protocol: "https", FQDN: "example.org", RDN: "example.org", MLD: "example", PublicSuffix: "org", Query: "x=1"},
		},
		{
			name: "fragment stripped",
			raw:  "https://example.net/path#frag",
			want: Parts{Protocol: "https", FQDN: "example.net", RDN: "example.net", MLD: "example", PublicSuffix: "net", Path: "/path"},
		},
		{
			name: "userinfo obfuscation",
			raw:  "http://paypal.com@evil.example.com/login",
			want: Parts{Protocol: "http", FQDN: "evil.example.com", Subdomains: "evil", RDN: "example.com", MLD: "example", PublicSuffix: "com", Path: "/login"},
		},
		{
			name: "uppercase host folded",
			raw:  "HTTP://WWW.Example.COM/Path",
			want: Parts{Protocol: "http", FQDN: "www.example.com", Subdomains: "www", RDN: "example.com", MLD: "example", PublicSuffix: "com", Path: "/Path"},
		},
		{
			name: "deep subdomains",
			raw:  "http://a.b.c.d.example.co.uk/",
			want: Parts{Protocol: "http", FQDN: "a.b.c.d.example.co.uk", Subdomains: "a.b.c.d", RDN: "example.co.uk", MLD: "example", PublicSuffix: "co.uk", Path: "/"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Parse(tt.raw)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.raw, err)
			}
			got.Raw = ""
			if got != tt.want {
				t.Errorf("Parse(%q)\n got %+v\nwant %+v", tt.raw, got, tt.want)
			}
		})
	}
}

func TestParseIPLiterals(t *testing.T) {
	for _, raw := range []string{
		"http://192.168.13.7/login.php",
		"http://8.8.8.8:8080/x?y=1",
	} {
		p := MustParse(raw)
		if !p.IsIP {
			t.Errorf("Parse(%q).IsIP = false, want true", raw)
		}
		if p.RDN != "" || p.MLD != "" {
			t.Errorf("Parse(%q) RDN=%q MLD=%q, want empty for IP literal", raw, p.RDN, p.MLD)
		}
		if p.LevelDomains() != 0 {
			t.Errorf("Parse(%q).LevelDomains() = %d, want 0", raw, p.LevelDomains())
		}
	}
	// Things that look like IPs but are not.
	for _, raw := range []string{"http://256.1.1.1/", "http://1.2.3.4.5/", "http://12.34.56.com/"} {
		if p := MustParse(raw); p.IsIP {
			t.Errorf("Parse(%q).IsIP = true, want false", raw)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := Parse("   "); err == nil {
		t.Fatal("Parse(blank) error = nil, want ErrEmptyURL")
	}
}

func TestPublicSuffixWildcardAndException(t *testing.T) {
	l := DefaultPSL()
	if got := l.PublicSuffix("foo.bar.ck"); got != "bar.ck" {
		t.Errorf("PublicSuffix(foo.bar.ck) = %q, want bar.ck (wildcard)", got)
	}
	if got := l.PublicSuffix("www.ck"); got != "ck" {
		t.Errorf("PublicSuffix(www.ck) = %q, want ck (exception)", got)
	}
	if got := l.PublicSuffix("unknowntld123.zz"); got != "zz" {
		t.Errorf("PublicSuffix for unknown TLD = %q, want zz (implicit rule)", got)
	}
}

func TestPublicSuffixWholeFQDNIsSuffix(t *testing.T) {
	p := MustParse("http://co.uk/")
	if p.RDN != "" || p.MLD != "" {
		t.Errorf("co.uk should have no registrable domain, got RDN=%q MLD=%q", p.RDN, p.MLD)
	}
}

func TestLevelDomains(t *testing.T) {
	if got := MustParse("http://a.b.example.com/").LevelDomains(); got != 4 {
		t.Errorf("LevelDomains = %d, want 4", got)
	}
	if got := MustParse("http://example.com/").LevelDomains(); got != 2 {
		t.Errorf("LevelDomains = %d, want 2", got)
	}
}

func TestIsHTTPS(t *testing.T) {
	if !MustParse("https://example.com").IsHTTPS() {
		t.Error("https URL not detected")
	}
	if MustParse("http://example.com").IsHTTPS() {
		t.Error("http URL misdetected as https")
	}
}

func TestStringReassembly(t *testing.T) {
	for _, raw := range []string{
		"https://www.amazon.co.uk/ap/signin?_encoding=UTF8",
		"http://example.com/",
		"http://example.com:8080/a?b=c",
	} {
		p := MustParse(raw)
		back := MustParse(p.String())
		back.Raw, p.Raw = "", ""
		if back != p {
			t.Errorf("roundtrip mismatch for %q:\n first %+v\nsecond %+v", raw, p, back)
		}
	}
}

// Property: for any parsed URL with a non-empty RDN, the RDN is a suffix of
// the FQDN and equals MLD + "." + PublicSuffix (or MLD when no suffix).
func TestQuickRDNInvariant(t *testing.T) {
	f := func(sub subdomainLabel, mld domainLabel, path pathString) bool {
		raw := "http://" + string(sub) + "." + string(mld) + ".com" + string(path)
		p, err := Parse(raw)
		if err != nil {
			return false
		}
		if p.RDN == "" {
			return false
		}
		if !strings.HasSuffix(p.FQDN, p.RDN) {
			return false
		}
		want := p.MLD
		if p.PublicSuffix != "" {
			want += "." + p.PublicSuffix
		}
		return p.RDN == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: FreeURL never contains the MLD as a standalone label taken from
// the RDN (the RDN is excluded from FreeURL by construction).
func TestQuickFreeURLExcludesRDN(t *testing.T) {
	f := func(mld domainLabel) bool {
		raw := "http://www." + string(mld) + ".com/index"
		p, err := Parse(raw)
		if err != nil {
			return false
		}
		return p.FreeURL() == "www /index"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Generators producing well-formed URL fragments for quick.Check live in
// quick_test.go.

func TestFreeURLDotsMatchesFreeURL(t *testing.T) {
	cases := []string{
		"https://www.amazon.co.uk/ap/signin?_encoding=UTF8",
		"http://a.b.c.example.com/x.y/z.html?v=1.2.3",
		"http://example.com",
		"http://192.168.0.1/login.php",
		"example.com/path.with.dots",
		"http://example.com/?q=..",
	}
	for _, raw := range cases {
		p := MustParse(raw)
		if got, want := p.FreeURLDots(), strings.Count(p.FreeURL(), "."); got != want {
			t.Errorf("FreeURLDots(%q) = %d, want %d", raw, got, want)
		}
	}
}
