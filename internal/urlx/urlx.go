// Package urlx decomposes URLs into the structural components used
// throughout the paper (Section II-B, Fig. 1):
//
//	protocol://[subdomains.]mld.ps[/path][?query]
//	           \____________________/
//	                    FQDN
//	                        \______/
//	                          RDN = mld + "." + ps
//
// The registered domain name (RDN) is the only part of a URL a phisher
// cannot choose freely: it must be registered with a registrar. Everything
// else — subdomains, path, query — is "FreeURL", fully under the control of
// whoever operates the server. The split between RDN and FreeURL is the
// foundation of the paper's "modeling phisher limitations" conjecture.
package urlx

import (
	"errors"
	"fmt"
	"strings"
)

// Parts holds the decomposition of a URL per the paper's Fig. 1.
type Parts struct {
	// Raw is the original URL string.
	Raw string `json:"raw"`
	// Protocol is the scheme, e.g. "https". Empty when the URL is
	// scheme-relative or malformed.
	Protocol string `json:"protocol"`
	// FQDN is the fully qualified domain name (host without port), e.g.
	// "www.amazon.co.uk". For IP-literal URLs it holds the address text.
	FQDN string `json:"fqdn"`
	// Subdomains is the prefix of the FQDN before the RDN, e.g. "www".
	// Empty when the FQDN equals the RDN.
	Subdomains string `json:"subdomains,omitempty"`
	// RDN is the registered domain name, e.g. "amazon.co.uk". Empty for
	// IP-literal hosts.
	RDN string `json:"rdn,omitempty"`
	// MLD is the main level domain, e.g. "amazon".
	MLD string `json:"mld,omitempty"`
	// PublicSuffix is the effective TLD, e.g. "co.uk".
	PublicSuffix string `json:"public_suffix,omitempty"`
	// Path is the path component including the leading "/", if any.
	Path string `json:"path,omitempty"`
	// Query is the query string without the leading "?", if any.
	Query string `json:"query,omitempty"`
	// IsIP reports whether the host is an IPv4/IPv6 literal. IP-based
	// phishing URLs are discussed in Section VII-B/VII-C of the paper:
	// they defeat domain-based features (empty RDN distributions).
	IsIP bool `json:"is_ip,omitempty"`
	// Port holds an explicit port if one was present, without the colon.
	Port string `json:"port,omitempty"`
}

// ErrEmptyURL is returned by Parse for empty or blank input.
var ErrEmptyURL = errors.New("urlx: empty URL")

// Parse decomposes raw into its structural parts using the package-level
// public suffix list. It is tolerant: URLs without a scheme are accepted
// (scheme defaults to empty), and a best-effort decomposition is always
// returned for non-empty input.
func Parse(raw string) (Parts, error) {
	return DefaultPSL().Parse(raw)
}

// MustParse is Parse for inputs known to be well-formed, typically in tests
// and examples. It panics on error.
func MustParse(raw string) Parts {
	p, err := Parse(raw)
	if err != nil {
		panic(fmt.Sprintf("urlx: MustParse(%q): %v", raw, err))
	}
	return p
}

// Parse decomposes raw against this suffix list. See the package-level
// Parse for semantics.
func (l *PSL) Parse(raw string) (Parts, error) {
	trimmed := strings.TrimSpace(raw)
	if trimmed == "" {
		return Parts{}, ErrEmptyURL
	}
	p := Parts{Raw: raw}
	rest := trimmed

	if i := strings.Index(rest, "://"); i >= 0 {
		p.Protocol = strings.ToLower(rest[:i])
		rest = rest[i+len("://"):]
	}

	// Split host[:port] from path/query. The first of '/', '?', '#'
	// terminates the authority.
	hostport := rest
	var tail string
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		hostport = rest[:i]
		tail = rest[i:]
	}

	// Strip userinfo if present (rare but used in URL obfuscation:
	// http://paypal.com@evil.example/).
	if i := strings.LastIndexByte(hostport, '@'); i >= 0 {
		hostport = hostport[i+1:]
	}

	host, port := splitHostPort(hostport)
	p.Port = port
	// Trim every trailing dot, not just one: "host.." must normalize to
	// the same FQDN PublicSuffix sees, or the label arithmetic below
	// misaligns (found by FuzzParse: "0.." yielded RDN "0.0").
	p.FQDN = strings.ToLower(strings.TrimRight(host, "."))

	switch {
	case tail == "":
	case tail[0] == '/':
		if i := strings.IndexByte(tail, '?'); i >= 0 {
			p.Path = stripFragment(tail[:i])
			p.Query = stripFragment(tail[i+1:])
		} else {
			p.Path = stripFragment(tail)
		}
	case tail[0] == '?':
		p.Query = stripFragment(tail[1:])
	}

	if isIPLiteral(p.FQDN) {
		p.IsIP = true
		return p, nil
	}

	if p.FQDN == "" {
		return p, nil
	}

	// Every part below is a substring of the lower-cased host: the
	// public suffix is h[ps:], the main level domain the label before
	// it, the registered domain both together and the subdomains what
	// precedes them.
	h := p.FQDN
	ps := l.suffixStart(h)
	p.PublicSuffix = h[ps:]
	if ps == 0 {
		// The whole FQDN is a public suffix (e.g. "co.uk" itself):
		// no registrable domain.
		return p, nil
	}
	mldEnd := len(h)
	if ps < len(h) {
		mldEnd = ps - 1
	}
	mld := strings.LastIndexByte(h[:mldEnd], '.') + 1
	p.MLD = h[mld:mldEnd]
	p.RDN = h[mld:]
	if mld > 0 {
		p.Subdomains = h[:mld-1]
	}
	return p, nil
}

// FreeURL returns the concatenation of all parts of the URL that the page
// owner fully controls: subdomains, path and query (Section II-B). The RDN
// and protocol are excluded.
func (p Parts) FreeURL() string {
	var b strings.Builder
	b.WriteString(p.Subdomains)
	if p.Path != "" {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.Path)
	}
	if p.Query != "" {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.Query)
	}
	if p.IsIP && b.Len() == 0 {
		return ""
	}
	return b.String()
}

// FreeURLDots returns strings.Count(p.FreeURL(), ".") without building
// the FreeURL string: the separator FreeURL joins components with is a
// space, so the dot count is the sum over the components. The dots-in-
// FreeURL statistic (feature 2 of Table IV) is computed for every URL
// of every scored page, which is why it gets an allocation-free path.
func (p Parts) FreeURLDots() int {
	return strings.Count(p.Subdomains, ".") +
		strings.Count(p.Path, ".") +
		strings.Count(p.Query, ".")
}

// LevelDomains returns the number of dot-separated labels in the FQDN
// (feature 3 of Table IV). IP literals count as zero levels.
func (p Parts) LevelDomains() int {
	if p.IsIP || p.FQDN == "" {
		return 0
	}
	return strings.Count(p.FQDN, ".") + 1
}

// IsHTTPS reports whether the protocol is https (feature 1 of Table IV).
func (p Parts) IsHTTPS() bool { return p.Protocol == "https" }

// String reassembles a canonical form of the URL.
func (p Parts) String() string {
	var b strings.Builder
	if p.Protocol != "" {
		b.WriteString(p.Protocol)
		b.WriteString("://")
	}
	b.WriteString(p.FQDN)
	if p.Port != "" {
		b.WriteByte(':')
		b.WriteString(p.Port)
	}
	b.WriteString(p.Path)
	if p.Query != "" {
		b.WriteByte('?')
		b.WriteString(p.Query)
	}
	return b.String()
}

func stripFragment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}

func splitHostPort(hostport string) (host, port string) {
	if strings.HasPrefix(hostport, "[") {
		// IPv6 literal [::1]:8080
		if i := strings.IndexByte(hostport, ']'); i >= 0 {
			host = hostport[1:i]
			rest := hostport[i+1:]
			if strings.HasPrefix(rest, ":") {
				port = rest[1:]
			}
			return host, port
		}
		return hostport, ""
	}
	if i := strings.LastIndexByte(hostport, ':'); i >= 0 {
		candidate := hostport[i+1:]
		if isDigits(candidate) {
			return hostport[:i], candidate
		}
	}
	return hostport, ""
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func isIPLiteral(host string) bool {
	if host == "" {
		return false
	}
	if strings.Contains(host, ":") {
		// Contains a colon after port stripping: IPv6.
		return true
	}
	// Dotted quad: four runs of one to three digits, each at most 255.
	parts, digits, v := 1, 0, 0
	for i := 0; i < len(host); i++ {
		switch c := host[i]; {
		case c == '.':
			if digits == 0 {
				return false
			}
			parts++
			digits, v = 0, 0
		case c >= '0' && c <= '9':
			digits++
			v = v*10 + int(c-'0')
			if digits > 3 || v > 255 {
				return false
			}
		default:
			return false
		}
	}
	return parts == 4 && digits > 0
}
