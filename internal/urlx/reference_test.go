package urlx

import (
	"math/rand"
	"strings"
	"testing"
)

// The Split/Join implementation Parse and PublicSuffix had before they
// were rewritten as index arithmetic over the lower-cased host, kept
// verbatim as the differential oracle. Do not modernise it.

// ReferenceParse and ReferencePublicSuffix expose the oracle to the
// external test package (FuzzParse and the webgen-driven table live
// there because webgen imports urlx).
func ReferenceParse(raw string) (Parts, error) { return DefaultPSL().referenceParse(raw) }

func ReferencePublicSuffix(fqdn string) string { return DefaultPSL().referencePublicSuffix(fqdn) }

func (l *PSL) referenceParse(raw string) (Parts, error) {
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

	hostport := rest
	var tail string
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		hostport = rest[:i]
		tail = rest[i:]
	}

	if i := strings.LastIndexByte(hostport, '@'); i >= 0 {
		hostport = hostport[i+1:]
	}

	host, port := splitHostPort(hostport)
	p.Port = port
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

	if referenceIsIPLiteral(p.FQDN) {
		p.IsIP = true
		return p, nil
	}

	if p.FQDN == "" {
		return p, nil
	}

	ps := l.referencePublicSuffix(p.FQDN)
	p.PublicSuffix = ps
	labels := strings.Split(p.FQDN, ".")
	psLabels := 0
	if ps != "" {
		psLabels = strings.Count(ps, ".") + 1
	}
	if psLabels >= len(labels) {
		return p, nil
	}
	p.MLD = labels[len(labels)-psLabels-1]
	if ps == "" {
		p.RDN = p.MLD
	} else {
		p.RDN = p.MLD + "." + ps
	}
	if extra := len(labels) - psLabels - 1; extra > 0 {
		p.Subdomains = strings.Join(labels[:extra], ".")
	}
	return p, nil
}

func (l *PSL) referencePublicSuffix(fqdn string) string {
	fqdn = strings.ToLower(strings.TrimRight(fqdn, "."))
	if fqdn == "" {
		return ""
	}
	labels := strings.Split(fqdn, ".")
	best := ""
	for i := 0; i < len(labels); i++ {
		candidate := strings.Join(labels[i:], ".")
		if _, ok := l.exceptions[candidate]; ok {
			if i+1 < len(labels) {
				return strings.Join(labels[i+1:], ".")
			}
			return ""
		}
		if _, ok := l.rules[candidate]; ok && len(candidate) > len(best) {
			best = candidate
		}
		if i > 0 {
			if _, ok := l.wildcards[candidate]; ok {
				wild := strings.Join(labels[i-1:], ".")
				if len(wild) > len(best) {
					best = wild
				}
			}
		}
	}
	if best == "" {
		return labels[len(labels)-1]
	}
	return best
}

func referenceIsIPLiteral(host string) bool {
	if host == "" {
		return false
	}
	if strings.Contains(host, ":") {
		return true
	}
	parts := strings.Split(host, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if !isDigits(p) || len(p) > 3 {
			return false
		}
		v := 0
		for i := 0; i < len(p); i++ {
			v = v*10 + int(p[i]-'0')
		}
		if v > 255 {
			return false
		}
	}
	return true
}

// TestPSLMatchesReference drives a list with rules the embedded one has
// no instance of — an exception whose domain is a single label (the
// suffix is then empty), a wildcard under a multi-label base, a rule
// longer than the wildcard it overlaps — over hosts assembled from the
// rule labels, with empty labels, trailing dots and mixed case.
func TestPSLMatchesReference(t *testing.T) {
	l := NewPSL([]string{"com", "co.uk", "uk", "*.ck", "!www.ck", "!solo", "*.a.b", "x.a.b", "!y.x.a.b", "*.bd"})
	labels := []string{"www", "ck", "solo", "a", "b", "x", "y", "com", "co", "uk", "bd", "", "Z", "é", "İ", "1", "255", "256"}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(6)
		parts := make([]string, n)
		for j := range parts {
			parts[j] = labels[rng.Intn(len(labels))]
		}
		host := strings.Join(parts, ".")
		if got, want := l.PublicSuffix(host), l.referencePublicSuffix(host); got != want {
			t.Fatalf("PublicSuffix(%q) = %q, reference %q", host, got, want)
		}
		raw := "http://" + host + "/p?q"
		got, err := l.Parse(raw)
		want, werr := l.referenceParse(raw)
		if got != want || (err == nil) != (werr == nil) {
			t.Fatalf("Parse(%q)\n got %+v (%v)\nwant %+v (%v)", raw, got, err, want, werr)
		}
		if isIPLiteral(host) != referenceIsIPLiteral(host) {
			t.Fatalf("isIPLiteral(%q) = %v, reference disagrees", host, isIPLiteral(host))
		}
	}
}
