package urlx

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
)

// PSL is a public suffix list supporting longest-match lookup with
// wildcard ("*.ck") and exception ("!www.ck") rules, following the
// publicsuffix.org algorithm. The zero value is unusable; construct with
// NewPSL or load rules with ReadPSL.
type PSL struct {
	rules      map[string]struct{}
	wildcards  map[string]struct{} // base of "*.<base>" rules
	exceptions map[string]struct{} // domain of "!<domain>" rules
}

// NewPSL builds a suffix list from explicit rules using the
// publicsuffix.org rule syntax ("com", "co.uk", "*.ck", "!www.ck").
func NewPSL(rules []string) *PSL {
	l := &PSL{
		rules:      make(map[string]struct{}, len(rules)),
		wildcards:  make(map[string]struct{}),
		exceptions: make(map[string]struct{}),
	}
	for _, r := range rules {
		l.addRule(r)
	}
	return l
}

func (l *PSL) addRule(r string) {
	r = strings.ToLower(strings.TrimSpace(r))
	if r == "" || strings.HasPrefix(r, "//") {
		return
	}
	switch {
	case strings.HasPrefix(r, "!"):
		l.exceptions[r[1:]] = struct{}{}
	case strings.HasPrefix(r, "*."):
		l.wildcards[r[2:]] = struct{}{}
	default:
		l.rules[r] = struct{}{}
	}
}

// ReadPSL parses rules in publicsuffix.org file format from r.
func ReadPSL(r io.Reader) (*PSL, error) {
	l := NewPSL(nil)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		l.addRule(sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("urlx: reading public suffix list: %w", err)
	}
	return l, nil
}

// PublicSuffix returns the public suffix of fqdn per the PSL algorithm:
// the longest matching rule wins; wildcard rules match one extra label;
// exception rules override wildcards. If no rule matches, the last label
// is the suffix (the implicit "*" rule).
func (l *PSL) PublicSuffix(fqdn string) string {
	fqdn = strings.ToLower(strings.TrimRight(fqdn, "."))
	if fqdn == "" {
		return ""
	}
	return fqdn[l.suffixStart(fqdn):]
}

// suffixStart returns where the public suffix of h starts; h is a
// non-empty lower-cased host without trailing dots. Every candidate the
// algorithm looks up is a suffix of h beginning at a label, so it walks
// the label starts and slices. len(h) means an exception rule matched
// the last label alone and the suffix is empty.
func (l *PSL) suffixStart(h string) int {
	best, prev, start := -1, -1, 0
	for {
		candidate := h[start:]
		dot := strings.IndexByte(candidate, '.')
		if _, ok := l.exceptions[candidate]; ok {
			// Exception rule: the suffix is one label shorter.
			if dot < 0 {
				return len(h)
			}
			return start + dot + 1
		}
		// Candidates only get shorter, so the first match is the longest.
		if _, ok := l.rules[candidate]; ok && best < 0 {
			best = start
		}
		if prev >= 0 {
			// A wildcard rule matches one label more than its base.
			if _, ok := l.wildcards[candidate]; ok && (best < 0 || prev < best) {
				best = prev
			}
		}
		if dot < 0 {
			break
		}
		prev, start = start, start+dot+1
	}
	if best < 0 {
		// No rule matched: the last label is the suffix.
		return start
	}
	return best
}

// defaultRules is a representative subset of the public suffix list: the
// generic TLDs plus the country-code second-level registries relevant to
// the six evaluation languages and the synthetic world. The paper ships
// the full list; loading one via ReadPSL gives identical behaviour.
var defaultRules = []string{
	"com", "org", "net", "edu", "gov", "mil", "int", "info", "biz",
	"name", "pro", "mobi", "travel", "jobs", "cat", "tel", "xxx",
	"io", "co", "me", "tv", "cc", "ws", "us", "eu", "asia",
	"online", "site", "top", "xyz", "club", "shop", "app", "dev",
	"bank", "cloud", "store", "tech", "web", "page",
	// United Kingdom
	"uk", "co.uk", "org.uk", "ac.uk", "gov.uk", "net.uk", "sch.uk",
	// France
	"fr", "com.fr", "asso.fr", "gouv.fr",
	// Germany
	"de",
	// Italy
	"it", "gov.it", "edu.it",
	// Portugal / Brazil
	"pt", "com.pt", "org.pt", "br", "com.br", "net.br", "org.br", "gov.br",
	// Spain / Latin America
	"es", "com.es", "org.es", "mx", "com.mx", "ar", "com.ar",
	// Misc frequently seen
	"ru", "com.ru", "cn", "com.cn", "jp", "co.jp", "ne.jp", "or.jp",
	"au", "com.au", "net.au", "org.au", "nz", "co.nz", "net.nz",
	"in", "co.in", "net.in", "za", "co.za", "pl", "com.pl", "nl",
	"be", "ch", "at", "se", "no", "dk", "fi", "cz", "gr", "tr", "com.tr",
	"kr", "co.kr", "hk", "com.hk", "sg", "com.sg", "tw", "com.tw",
	"ca", "qc.ca", "on.ca", "ua", "com.ua", "il", "co.il",
	// Wildcard + exception examples from the PSL spec, kept so the
	// algorithm paths stay exercised.
	"*.ck", "!www.ck", "*.bd",
}

var (
	defaultPSLOnce sync.Once
	defaultPSL     *PSL
)

// DefaultPSL returns the process-wide suffix list built from the embedded
// subset. The returned value is shared and must be treated as read-only.
func DefaultPSL() *PSL {
	defaultPSLOnce.Do(func() {
		defaultPSL = NewPSL(defaultRules)
	})
	return defaultPSL
}
