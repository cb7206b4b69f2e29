// Package ranking provides the domain-popularity list used by feature 9 of
// Table IV ("Alexa ranking of the RDN"). The paper uses a fixed, previously
// downloaded copy of the Alexa top-1M list; unranked domains take the
// default value 1,000,001. This package loads such lists from disk and also
// generates deterministic synthetic lists over the synthetic world's
// legitimate domains (Zipf-ordered), which is our substitute for the real
// Alexa file.
package ranking

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// UnrankedValue is the rank assigned to domains not present in the list,
// exactly as in the paper: 1,000,001.
const UnrankedValue = 1000001

// List is an immutable domain → rank lookup. The zero value is an empty
// list for which every domain is unranked.
type List struct {
	ranks map[string]int
}

// New builds a list from RDNs in rank order: domains[0] has rank 1.
func New(domains []string) *List {
	ranks := make(map[string]int, len(domains))
	for i, d := range domains {
		d = strings.ToLower(strings.TrimSpace(d))
		if d == "" {
			continue
		}
		if _, dup := ranks[d]; !dup {
			ranks[d] = i + 1
		}
	}
	return &List{ranks: ranks}
}

// Read parses the Alexa CSV format "rank,domain" (or just "domain" per
// line, in which case line order defines rank).
func Read(r io.Reader) (*List, error) {
	ranks := make(map[string]int)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rank := line
		domain := text
		if i := strings.IndexByte(text, ','); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(text[:i]))
			if err != nil {
				return nil, fmt.Errorf("ranking: line %d: bad rank %q: %w", line, text[:i], err)
			}
			rank = n
			domain = strings.TrimSpace(text[i+1:])
		}
		domain = strings.ToLower(domain)
		if _, dup := ranks[domain]; !dup && domain != "" {
			ranks[domain] = rank
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ranking: reading list: %w", err)
	}
	return &List{ranks: ranks}, nil
}

// Rank returns the rank of rdn, or UnrankedValue when absent. A nil List
// behaves as an empty list.
func (l *List) Rank(rdn string) int {
	if l == nil {
		return UnrankedValue
	}
	if r, ok := l.ranks[strings.ToLower(rdn)]; ok {
		return r
	}
	return UnrankedValue
}

// Contains reports whether rdn is ranked.
func (l *List) Contains(rdn string) bool {
	if l == nil {
		return false
	}
	_, ok := l.ranks[strings.ToLower(rdn)]
	return ok
}

// Len returns the number of ranked domains.
func (l *List) Len() int {
	if l == nil {
		return 0
	}
	return len(l.ranks)
}

// WriteTo emits the list in "rank,domain" CSV order, implementing a subset
// of io.WriterTo sufficient for persistence.
func (l *List) WriteTo(w io.Writer) (int64, error) {
	if l == nil {
		return 0, nil
	}
	type entry struct {
		rank   int
		domain string
	}
	entries := make([]entry, 0, len(l.ranks))
	for d, r := range l.ranks {
		entries = append(entries, entry{r, d})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].rank != entries[j].rank {
			return entries[i].rank < entries[j].rank
		}
		return entries[i].domain < entries[j].domain
	})
	var total int64
	for _, e := range entries {
		n, err := fmt.Fprintf(w, "%d,%s\n", e.rank, e.domain)
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("ranking: writing list: %w", err)
		}
	}
	return total, nil
}
