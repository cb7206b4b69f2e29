// Package terms implements the term-extraction scheme of Section III-B of
// the paper and the probabilistic term distributions compared with the
// Hellinger distance (Equation 1).
//
// A "term" is a maximal run of characters from the 26-letter lowercase
// English alphabet A = {a..z} of length at least 3, after canonicalizing
// upper-case, accented and look-alike characters to their base letter
// (e.g. B, β, b̀, b̂ → b). Everything outside A splits the input. The scheme
// is deliberately language-independent: no dictionary, no stop-word list,
// no stemming.
//
// A Distribution holds its distinct terms sorted, every one a substring
// of a single backing string, beside a parallel probability slice.
// Sorted order is what the Hellinger merge needs anyway, so lookups are
// a binary search over it and no hash map is built: a page has fourteen
// distributions, most of them a handful of terms, and each one is kept
// alive in the serving memo tables long after it was built. They are
// built by a pooled Builder that folds and splits its input straight
// into a byte arena, sorts the occurrences and run-length counts them —
// three allocations (backing string, terms, probabilities) for one
// distribution or for all fourteen of a page built together, none of
// them aliasing the pooled arena.
package terms

import (
	"bytes"
	"slices"
	"sort"
	"sync"
	"unicode"
)

// MinTermLength is the minimum length of an extracted term. Shorter
// substrings are discarded (Section III-B: "throw away any substring whose
// length is less than 3").
const MinTermLength = 3

// Canonicalize maps r to a lowercase English letter in a–z, or -1 when the
// rune has no base letter (digits, punctuation, CJK, etc.). Accented Latin
// characters fold to their base letter; Greek look-alikes used in
// homograph attacks fold to the Latin letter they resemble.
func Canonicalize(r rune) rune {
	switch {
	case 'a' <= r && r <= 'z':
		return r
	case 'A' <= r && r <= 'Z':
		return r + ('a' - 'A')
	}
	if r < 128 {
		return -1
	}
	if f, ok := foldTable[r]; ok {
		return f
	}
	// Generic decomposition fallback: strip the combining class by
	// checking the unicode Latin range tables.
	if unicode.Is(unicode.Latin, r) {
		lower := unicode.ToLower(r)
		if f, ok := foldTable[lower]; ok {
			return f
		}
	}
	return -1
}

// Extract splits s into terms per the paper's scheme. The returned slice
// preserves occurrence order and repetitions (one entry per occurrence);
// its strings share one backing string.
func Extract(s string) []string {
	b := AcquireBuilder()
	defer b.Release()
	b.Add(s)
	return b.occurrences()
}

// Count returns len(Extract(s)) without materializing the terms: the
// number of maximal runs of canonicalizable characters of length at
// least MinTermLength. It allocates nothing, which is what keeps the
// URL-statistics features (terms-in-URL, terms-in-mld, computed per
// link on every scored page) off the heap.
func Count(s string) int {
	n, run := 0, 0
	for _, r := range s {
		if Canonicalize(r) < 0 {
			if run >= MinTermLength {
				n++
			}
			run = 0
			continue
		}
		run++
	}
	if run >= MinTermLength {
		n++
	}
	return n
}

// AppendFolded appends the canonicalized form of s to dst: every rune
// with a base letter contributes that letter, everything else is
// dropped ("secure-login-77" → "securelogin"). It is the
// allocation-free form of folding an mld to the term its usage in text
// would produce; Canonicalize only emits a–z, so one byte per kept
// rune.
func AppendFolded(dst []byte, s string) []byte {
	for _, r := range s {
		if c := Canonicalize(r); c > 0 {
			dst = append(dst, byte(c))
		}
	}
	return dst
}

// Builder accumulates term occurrences and builds their distributions.
// Add folds and splits text by Extract's rule directly into a byte
// arena, so no per-term string or []string exists on the way. A Builder
// comes from AcquireBuilder and goes back with Release; between the two
// it builds any number of distributions, one by one (Build) or several
// that are kept together in one set of arrays (Next, BuildAll). Nothing
// a Builder returns references its scratch.
type Builder struct {
	arena  []byte // folded occurrences, back to back
	ends   []int  // ends[i]: end offset of occurrence i in arena
	bounds []int  // bounds[k]: len(ends) when Next closed distribution k
	perm   []int  // occurrence indexes, sorted by term within a distribution
}

var builderPool = sync.Pool{New: func() any { return new(Builder) }}

// AcquireBuilder returns an empty Builder from the pool.
func AcquireBuilder() *Builder { return builderPool.Get().(*Builder) }

// Release returns b, emptied, to the pool; b must not be used afterwards.
func (b *Builder) Release() {
	b.reset()
	builderPool.Put(b)
}

func (b *Builder) reset() {
	b.arena = b.arena[:0]
	b.ends = b.ends[:0]
	b.bounds = b.bounds[:0]
}

// Add appends the terms of s as occurrences. A term never spans two
// Add calls: the end of s splits like any character outside the
// alphabet.
func (b *Builder) Add(s string) {
	start := len(b.arena)
	for _, r := range s {
		if c := Canonicalize(r); c >= 0 {
			b.arena = append(b.arena, byte(c))
			continue
		}
		start = b.cut(start)
	}
	b.cut(start)
}

// cut closes the run that began at start: kept as an occurrence when
// long enough, dropped from the arena otherwise. It returns where the
// next run begins.
func (b *Builder) cut(start int) int {
	if len(b.arena)-start >= MinTermLength {
		b.ends = append(b.ends, len(b.arena))
	} else {
		b.arena = b.arena[:start]
	}
	return len(b.arena)
}

// addOccurrence appends t as one occurrence exactly as given.
func (b *Builder) addOccurrence(t string) {
	b.arena = append(b.arena, t...)
	b.ends = append(b.ends, len(b.arena))
}

// occurrence returns the bytes of occurrence i.
func (b *Builder) occurrence(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.arena[start:b.ends[i]]
}

// sorted returns the bytes of the i-th occurrence in sorted order.
func (b *Builder) sorted(i int) []byte { return b.occurrence(b.perm[i]) }

// startsRun reports whether the i-th occurrence in sorted order is the
// first of its term in the distribution whose occurrences begin at lo.
func (b *Builder) startsRun(i, lo int) bool {
	return i == lo || !bytes.Equal(b.sorted(i), b.sorted(i-1))
}

// occurrences returns the accumulated occurrences in order, cut from one
// copy of the arena, and empties the builder.
func (b *Builder) occurrences() []string {
	if len(b.ends) == 0 {
		return nil
	}
	backing := string(b.arena)
	out := make([]string, len(b.ends))
	start := 0
	for i, end := range b.ends {
		out[i] = backing[start:end]
		start = end
	}
	b.reset()
	return out
}

// Next closes the distribution the preceding Add calls fed; the Add
// calls that follow feed another one.
func (b *Builder) Next() { b.bounds = append(b.bounds, len(b.ends)) }

// Build returns the distribution of the occurrences added since the
// last Build and empties the builder for the next one.
func (b *Builder) Build() Distribution {
	var d [1]Distribution
	b.Next()
	b.BuildAll(d[:])
	return d[0]
}

// BuildAll stores the distributions closed by Next, in order, in dst
// (one element per Next call) and empties the builder. Sorting a
// distribution's occurrences bytewise puts equal terms next to each
// other, so counting is a run-length pass and the distinct terms come
// out in the order sort.Strings would give them. The distributions
// share three allocations — one backing string, one term slice, one
// probability slice — and each is cut from them capacity-limited.
func (b *Builder) BuildAll(dst []Distribution) {
	b.perm = b.perm[:0]
	for i := range b.ends {
		b.perm = append(b.perm, i)
	}
	// Sort each distribution and stage its distinct terms, in order,
	// behind the occurrences in the arena.
	staged, distinct, lo := len(b.arena), 0, 0
	for _, hi := range b.bounds {
		slices.SortFunc(b.perm[lo:hi], func(x, y int) int {
			return bytes.Compare(b.occurrence(x), b.occurrence(y))
		})
		for i := lo; i < hi; i++ {
			if b.startsRun(i, lo) {
				distinct++
				b.arena = append(b.arena, b.sorted(i)...)
			}
		}
		lo = hi
	}
	clear(dst)
	if distinct > 0 {
		rest := string(b.arena[staged:])
		terms := make([]string, 0, distinct)
		probs := make([]float64, 0, distinct)
		lo = 0
		for k, hi := range b.bounds {
			first := len(terms)
			for i := lo; i < hi; {
				j := i + 1
				for j < hi && !b.startsRun(j, lo) {
					j++
				}
				size := len(b.sorted(i))
				terms = append(terms, rest[:size])
				probs = append(probs, float64(j-i)/float64(hi-lo))
				rest = rest[size:]
				i = j
			}
			if last := len(terms); last > first {
				dst[k] = Distribution{terms: terms[first:last:last], probs: probs[first:last:last], total: hi - lo}
			}
			lo = hi
		}
	}
	b.reset()
}

// Distribution is a probabilistic term distribution D_S: each extracted
// term t_i paired with its occurrence probability p_i within the source,
// with probabilities in (0, 1] summing to 1 (Section III-B).
//
// Terms are stored sorted so that every numeric traversal (Hellinger
// distance, probability sums) visits them in a fixed order — floating-
// point accumulation is order-sensitive, and the whole repository
// guarantees bit-identical results for identical inputs. The same order
// serves lookups: P, Contains and ContainsBytes binary-search it, so a
// distribution carries no index beside its two slices.
type Distribution struct {
	terms []string  // sorted ascending, substrings of one backing string
	probs []float64 // parallel to terms
	total int
}

// NewDistribution builds a distribution from a multiset of term
// occurrences, taken as given (no folding, no minimum length). An empty
// occurrence list yields the empty distribution.
func NewDistribution(occurrences []string) Distribution {
	b := AcquireBuilder()
	defer b.Release()
	for _, t := range occurrences {
		b.addOccurrence(t)
	}
	return b.Build()
}

// FromText extracts terms from s and builds their distribution.
func FromText(s string) Distribution {
	b := AcquireBuilder()
	defer b.Release()
	b.Add(s)
	return b.Build()
}

// FromStrings extracts terms from every string and builds the combined
// distribution.
func FromStrings(ss []string) Distribution {
	b := AcquireBuilder()
	defer b.Release()
	for _, s := range ss {
		b.Add(s)
	}
	return b.Build()
}

// Empty reports whether the distribution has no terms.
func (d Distribution) Empty() bool { return len(d.terms) == 0 }

// Len returns the number of distinct terms.
func (d Distribution) Len() int { return len(d.terms) }

// TotalOccurrences returns the number of term occurrences the distribution
// was built from.
func (d Distribution) TotalOccurrences() int { return d.total }

// P returns the probability of term t, or 0 if absent.
func (d Distribution) P(t string) float64 {
	if i, ok := slices.BinarySearch(d.terms, t); ok {
		return d.probs[i]
	}
	return 0
}

// Contains reports whether term t occurs in the distribution.
func (d Distribution) Contains(t string) bool {
	_, ok := slices.BinarySearch(d.terms, t)
	return ok
}

// ContainsBytes is Contains for a byte-slice term, allocation-free.
func (d Distribution) ContainsBytes(t []byte) bool {
	_, ok := d.find(t)
	return ok
}

// find is the binary search behind the byte-slice lookups: the index of
// term t and whether d holds it (a string conversion inside a comparison
// does not copy).
func (d Distribution) find(t []byte) (int, bool) {
	lo, hi := 0, len(d.terms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.terms[mid] < string(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.terms) && d.terms[lo] == string(t)
}

// AppendExtract appends Extract(s) to dst — occurrence order,
// repetitions kept — taking each term from d's own strings instead of
// allocating it; an occurrence d does not hold is left out. For a d
// built from s (webpage.Analysis keeps one per URL part) it is Extract
// without an allocation.
func (d Distribution) AppendExtract(dst []string, s string) []string {
	b := AcquireBuilder()
	defer b.Release()
	b.Add(s)
	for i := range b.ends {
		if j, ok := d.find(b.occurrence(i)); ok {
			dst = append(dst, d.terms[j])
		}
	}
	return dst
}

// Terms returns the distinct terms in sorted order. The slice is shared;
// callers must not modify it.
func (d Distribution) Terms() []string { return d.terms }

// Probs returns the probabilities parallel to Terms. The slice is
// shared; callers must not modify it.
func (d Distribution) Probs() []float64 { return d.probs }

// SubstringProbabilitySumBytes returns the sum of probabilities of terms
// that are substrings of target. Used by feature set f3: "sum of
// probability from terms of D that are substrings of starting/landing
// mld". Deterministic: terms are visited in sorted order. It is
// allocation-free: the substring scan compares bytes in place instead
// of converting either side to a string.
func (d Distribution) SubstringProbabilitySumBytes(target []byte) float64 {
	if len(target) == 0 {
		return 0
	}
	var sum float64
	for i, t := range d.terms {
		if bytesContainString(target, t) {
			sum += d.probs[i]
		}
	}
	return sum
}

// bytesContainString reports whether sub occurs in b, matching
// strings.Contains semantics without allocating. The scan is naive;
// targets here are mld-length (tens of bytes), where setup-free beats
// Rabin–Karp.
func bytesContainString(b []byte, sub string) bool {
	if len(sub) == 0 {
		return true
	}
	for i := 0; i+len(sub) <= len(b); i++ {
		// A string(...) conversion in an == comparison does not allocate.
		if string(b[i:i+len(sub)]) == sub {
			return true
		}
	}
	return false
}

// TopN returns the n most probable terms, ties broken lexicographically
// for determinism.
func (d Distribution) TopN(n int) []string {
	type tp struct {
		t string
		p float64
	}
	all := make([]tp, 0, len(d.terms))
	for i, t := range d.terms {
		all = append(all, tp{t, d.probs[i]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return all[i].t < all[j].t
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].t
	}
	return out
}
