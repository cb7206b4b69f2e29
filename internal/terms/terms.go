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
// a binary search over it and a distribution carries no hash map: a page
// has fourteen distributions, most of them a handful of terms, and each
// one is kept alive in the serving memo tables long after it was built.
// They are built by a pooled Builder that folds and splits its input
// straight into a byte arena, collapses the occurrences into distinct
// terms with their counts in a seeded hash table it reuses, and sorts
// only the distinct terms — three allocations (backing string, terms,
// probabilities) for one distribution or for all fourteen of a page
// built together, none of them aliasing the pooled arena. A caller that
// keeps its term and probability arrays for reuse (BuildAllInto) pays
// only for the backing string.
package terms

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/maphash"
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
	arena  []byte  // folded occurrences, back to back
	ends   []int   // ends[i]: end offset of occurrence i in arena
	bounds []int   // bounds[k]: len(ends) when Next closed distribution k
	cuts   []int   // cuts[k]: len(uniq) once distribution k is collapsed
	uniq   []entry // distinct terms, a sorted run per distribution
	slots  []int32 // open-addressed table over uniq: 1 + index, 0 empty
	seed   maphash.Seed
}

// entry is one distinct term of a distribution: its first eight bytes
// as a big-endian number, zero-padded, where its first occurrence lies
// in the arena, and how many occurrences it has.
type entry struct {
	key           uint64
	start, end, n int
}

// prefixKey packs the first eight bytes of t, zero-padded, so that two
// terms whose keys differ compare as their keys do.
func prefixKey(t []byte) uint64 {
	var k [8]byte
	copy(k[:], t)
	return binary.BigEndian.Uint64(k[:])
}

// maxPooledSlots bounds the table a pooled Builder keeps: a
// distribution of more than half as many occurrences (a hostile page;
// crawled pages have a few hundred) gets its table for the call and the
// Builder is dropped.
const maxPooledSlots = 1 << 14

var builderPool = sync.Pool{New: func() any { return &Builder{seed: maphash.MakeSeed()} }}

// AcquireBuilder returns an empty Builder from the pool.
func AcquireBuilder() *Builder { return builderPool.Get().(*Builder) }

// Release returns b, emptied, to the pool, or drops it when a
// distribution grew its table past maxPooledSlots; b must not be used
// afterwards.
func (b *Builder) Release() {
	if cap(b.slots) > maxPooledSlots {
		return
	}
	b.reset()
	builderPool.Put(b)
}

func (b *Builder) reset() {
	b.arena = b.arena[:0]
	b.ends = b.ends[:0]
	b.bounds = b.bounds[:0]
	b.cuts = b.cuts[:0]
	b.uniq = b.uniq[:0]
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

func (b *Builder) bytes(e entry) []byte { return b.arena[e.start:e.end] }

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

// collapse appends the distinct terms of occurrences [lo, hi) to uniq,
// each with its count, sorted bytewise — the order sort.Strings gives.
// Equal occurrences meet in an open-addressed table probed with a
// seeded hash and confirmed byte for byte, so only the distinct terms
// are sorted, however often a page repeats them.
func (b *Builder) collapse(lo, hi int) {
	first := len(b.uniq)
	if lo == hi {
		return
	}
	size := 4
	for size < 2*(hi-lo) {
		size <<= 1
	}
	if cap(b.slots) < size {
		b.slots = make([]int32, size)
	} else {
		b.slots = b.slots[:size]
		clear(b.slots)
	}
	mask := uint64(size - 1)
	start := 0
	if lo > 0 {
		start = b.ends[lo-1]
	}
	for _, end := range b.ends[lo:hi] {
		t := b.arena[start:end]
		for h := maphash.Bytes(b.seed, t) & mask; ; h = (h + 1) & mask {
			s := b.slots[h]
			if s == 0 {
				b.uniq = append(b.uniq, entry{key: prefixKey(t), start: start, end: end, n: 1})
				b.slots[h] = int32(len(b.uniq))
				break
			}
			if e := &b.uniq[s-1]; bytes.Equal(b.bytes(*e), t) {
				e.n++
				break
			}
		}
		start = end
	}
	slices.SortFunc(b.uniq[first:], func(x, y entry) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return bytes.Compare(b.bytes(x), b.bytes(y))
	})
}

// collapseAll collapses every distribution closed by Next and stages
// the distinct terms, in order, behind the occurrences in the arena.
// It returns where the staged terms begin.
func (b *Builder) collapseAll() int {
	b.uniq, b.cuts = b.uniq[:0], b.cuts[:0]
	lo := 0
	for _, hi := range b.bounds {
		b.collapse(lo, hi)
		b.cuts = append(b.cuts, len(b.uniq))
		lo = hi
	}
	staged := len(b.arena)
	for _, e := range b.uniq {
		b.arena = append(b.arena, b.bytes(e)...)
	}
	return staged
}

// BuildAll stores the distributions closed by Next, in order, in dst
// (one element per Next call) and empties the builder. The
// distributions share three allocations — one backing string, one term
// slice, one probability slice — and each is cut from them
// capacity-limited.
func (b *Builder) BuildAll(dst []Distribution) { b.BuildAllInto(dst, nil, nil) }

// BuildAllInto is BuildAll with the term and probability arrays
// supplied by the caller: the distributions are cut from terms and
// probs when their capacity allows, and from arrays of exactly the
// needed size otherwise. It returns the arrays used, cut to the number
// of distinct terms, for the caller to pass again once nothing reads
// the distributions any more; the backing string is the one
// allocation left.
func (b *Builder) BuildAllInto(dst []Distribution, terms []string, probs []float64) ([]string, []float64) {
	staged := b.collapseAll()
	clear(dst)
	n := len(b.uniq)
	terms, probs = sized(terms, n), sized(probs, n)
	if n > 0 {
		rest := string(b.arena[staged:])
		lo, first := 0, 0
		for k, hi := range b.bounds {
			last := b.cuts[k]
			for j, e := range b.uniq[first:last] {
				size := e.end - e.start
				terms[first+j], rest = rest[:size], rest[size:]
				probs[first+j] = float64(e.n) / float64(hi-lo)
			}
			if last > first {
				dst[k] = Distribution{terms: terms[first:last:last], probs: probs[first:last:last], total: hi - lo}
			}
			lo, first = hi, last
		}
	}
	b.reset()
	return terms, probs
}

// sized returns s cut to length n when its capacity allows, else a new
// slice of exactly n elements; nil for n == 0 on a nil s.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AppendSorted appends the occurrences of the distributions closed by
// Next to dst, distribution by distribution, each one's in sorted order
// — its distinct terms as BuildAll gives them, every one repeated once
// per occurrence — and empties the builder. The strings share one
// backing string. It is what a term-frequency index wants from a page:
// the counts, without the probabilities.
func (b *Builder) AppendSorted(dst []string) []string {
	staged := b.collapseAll()
	if len(b.uniq) > 0 {
		dst = slices.Grow(dst, len(b.ends))
		rest := string(b.arena[staged:])
		for _, e := range b.uniq {
			size := e.end - e.start
			for range e.n {
				dst = append(dst, rest[:size])
			}
			rest = rest[size:]
		}
	}
	b.reset()
	return dst
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
