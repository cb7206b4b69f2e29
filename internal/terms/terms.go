// Package terms implements the term-extraction scheme of Section III-B of
// the paper and the probabilistic term distributions compared with the
// Hellinger distance (Equation 1).
//
// A "term" is a maximal run of characters from the 26-letter lowercase
// English alphabet A = {a..z} of length at least 3, after canonicalizing
// upper-case, accented and look-alike characters to their base letter
// (e.g. B, β, b̀, b̂ → b). Everything outside A splits the input, except
// the format characters a browser does not draw (soft hyphen, zero-width
// space and the rest of unicode.Cf), which are dropped. The scheme is
// deliberately language-independent: no dictionary, no stop-word list,
// no stemming.
//
// A Distribution holds its distinct terms sorted, beside a parallel
// probability slice. Sorted order is what the Hellinger merge needs
// anyway, so lookups are a binary search over it and a distribution
// carries no hash map. Distributions are built by a pooled Builder that
// folds and splits its input straight into a byte arena, collapses the
// occurrences of all the distributions it holds into distinct terms in
// one seeded hash table it reuses, and sorts those distinct terms once:
// a term's place in that order is its rank, and each distribution lists
// its terms by rank without a sort of its own. BuildAll cuts the
// distributions from three allocations (backing string, terms,
// probabilities), none of them aliasing the pooled arena. A page's
// analysis builds into a Dictionary it owns (BuildDictionary):
// no allocation once warm, term strings that are views of the
// dictionary's bytes, and each distribution also as a Ranked, which the
// Hellinger distance merges by rank.
package terms

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"
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
	if uint32(r) < utf8.RuneSelf {
		return rune(asciiFold[r]) // inlined: most of a page is ASCII
	}
	return canonicalizeRune(r)
}

// asciiFold is Canonicalize below utf8.RuneSelf.
var asciiFold = func() (fold [utf8.RuneSelf]int8) {
	for r := range fold {
		switch {
		case 'a' <= r && r <= 'z':
			fold[r] = int8(r)
		case 'A' <= r && r <= 'Z':
			fold[r] = int8(r + ('a' - 'A'))
		default:
			fold[r] = -1
		}
	}
	return fold
}()

// canonicalizeRune is Canonicalize from utf8.RuneSelf up.
func canonicalizeRune(r rune) rune {
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

// isFormat reports whether r is a format character (unicode.Cf: the
// soft hyphen U+00AD, the zero-width space and joiners U+200B–U+200F,
// the word joiner U+2060, the byte-order mark U+FEFF and the rest of
// the class). A browser draws none of them, so term extraction drops
// them without splitting the term around them. No Cf character lies
// in [U+2070, U+FEFF), so the scripts in that block (CJK among them)
// skip the table search.
func isFormat(r rune) bool {
	return r >= 0xAD && (r < 0x2070 || r >= 0xFEFF) && unicode.Is(unicode.Cf, r)
}

// Extract splits s into terms per the paper's scheme; format characters
// (isFormat) are dropped without splitting a term. The returned slice
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
			if isFormat(r) {
				continue
			}
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
// that are kept together in one set of arrays (Next, BuildAll,
// BuildDictionary). Nothing a Builder returns references its scratch.
type Builder struct {
	arena  []byte      // folded occurrences, back to back
	ends   []int       // ends[i]: end offset of occurrence i in arena
	bounds []int       // bounds[k]: len(ends) when Next closed distribution k
	uniq   []entry     // the distinct terms of every distribution, in rank order once collapsed
	pairs  []pair      // each distribution's count of each of its terms, in the order collapse meets them
	cuts   []int       // cuts[k]: end of distribution k's run in pairs and ranked
	ranked []rankCount // the runs of pairs, each in rank order
	at     []int       // at[k]: where distribution k's next entry in ranked goes
	slots  []int32     // open-addressed table over uniq: 1 + index, 0 empty
	seed   maphash.Seed
}

// entry is one distinct term: its first eight bytes as a big-endian
// number, zero-padded, where it lies in the arena, and its pair in the
// latest distribution that holds it.
type entry struct {
	key        uint64
	start, end int
	last       int32 // 1 + index in pairs, 0 before the first
}

// pair is one distinct term of one distribution: the distribution, the
// term's count there, and the term's pair in an earlier distribution
// (1 + index in pairs, 0 for none). The pairs of one term form a chain
// back through every distribution that holds it. A page has fewer than
// 2³¹ occurrences, so counts and indexes fit in 32 bits.
type pair struct {
	dist, n, prev int32
}

// rankCount is one distinct term of one distribution, by rank.
type rankCount struct {
	rank, n int32
}

// prefixKey packs the first eight bytes of t, zero-padded, so that two
// terms whose keys differ compare as their keys do.
func prefixKey(t []byte) uint64 {
	var k [8]byte
	copy(k[:], t)
	return binary.BigEndian.Uint64(k[:])
}

// maxPooledSlots bounds the table a pooled Builder keeps: a page of
// more than half as many occurrences (a hostile one; crawled pages have
// a few hundred) gets its table for the call and the Builder is dropped.
const maxPooledSlots = 1 << 14

var builderPool = sync.Pool{New: func() any { return &Builder{seed: maphash.MakeSeed()} }}

// AcquireBuilder returns an empty Builder from the pool.
func AcquireBuilder() *Builder { return builderPool.Get().(*Builder) }

// Release returns b, emptied, to the pool, or drops it when a page grew
// its table past maxPooledSlots; b must not be used afterwards.
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
	b.uniq = b.uniq[:0]
	b.pairs = b.pairs[:0]
	b.cuts = b.cuts[:0]
	b.ranked = b.ranked[:0]
}

// Add appends the terms of s as occurrences. A term never spans two
// Add calls: the end of s splits like any character outside the
// alphabet. A format character (isFormat) neither joins a term nor
// splits one: "pay​pal" is the one term "paypal", as a browser
// shows it.
func (b *Builder) Add(s string) {
	start := len(b.arena)
	for _, r := range s {
		if c := Canonicalize(r); c >= 0 {
			b.arena = append(b.arena, byte(c))
		} else if !isFormat(r) {
			start = b.cut(start)
		}
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

// collapse collapses the occurrences of every distribution closed by
// Next once, into the page's distinct terms (uniq) and each
// distribution's count of each of its terms (pairs). Equal occurrences
// meet in one open-addressed table probed with a seeded hash and
// confirmed byte for byte. It then sorts the distinct terms bytewise —
// the order sort.Strings gives — once for all distributions, so that a
// term's index in uniq is its rank, and lists each distribution's terms
// in ranked by rank: walking the ranks in order, every pair of a term
// lands at its distribution's next place, so no distribution is sorted
// on its own.
func (b *Builder) collapse() {
	b.uniq, b.pairs, b.cuts = b.uniq[:0], b.pairs[:0], b.cuts[:0]
	if len(b.bounds) == 0 {
		return
	}
	size := 4
	for size < 2*b.bounds[len(b.bounds)-1] {
		size <<= 1
	}
	if cap(b.slots) < size {
		b.slots = make([]int32, size)
	} else {
		b.slots = b.slots[:size]
		clear(b.slots)
	}
	mask := uint64(size - 1)
	start, lo := 0, 0
	for k, hi := range b.bounds {
		first := int32(len(b.pairs)) // distribution k's pairs follow
		for _, end := range b.ends[lo:hi] {
			t := b.arena[start:end]
			var e *entry
			for h := maphash.Bytes(b.seed, t) & mask; ; h = (h + 1) & mask {
				s := b.slots[h]
				if s == 0 {
					b.uniq = append(b.uniq, entry{key: prefixKey(t), start: start, end: end})
					b.slots[h] = int32(len(b.uniq))
					e = &b.uniq[len(b.uniq)-1]
					break
				}
				if e = &b.uniq[s-1]; bytes.Equal(b.bytes(*e), t) {
					break
				}
			}
			if e.last > first {
				b.pairs[e.last-1].n++
			} else {
				b.pairs = append(b.pairs, pair{dist: int32(k), n: 1, prev: e.last})
				e.last = int32(len(b.pairs))
			}
			start = end
		}
		b.cuts = append(b.cuts, len(b.pairs))
		lo = hi
	}
	slices.SortFunc(b.uniq, func(x, y entry) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return bytes.Compare(b.bytes(x), b.bytes(y))
	})
	b.ranked = sized(b.ranked, len(b.pairs))
	b.at = append(b.at[:0], 0)
	b.at = append(b.at, b.cuts[:len(b.cuts)-1]...)
	for r := range b.uniq {
		for p := b.uniq[r].last; p != 0; {
			pr := b.pairs[p-1]
			b.ranked[b.at[pr.dist]] = rankCount{rank: int32(r), n: pr.n}
			b.at[pr.dist]++
			p = pr.prev
		}
	}
}

// run returns distribution k's run [first, last) in ranked and its
// number of occurrences.
func (b *Builder) run(k int) (first, last, total int) {
	lo := 0
	if k > 0 {
		first, lo = b.cuts[k-1], b.bounds[k-1]
	}
	return first, b.cuts[k], b.bounds[k] - lo
}

// stage appends the distinct terms, in rank order, to dst and points
// each at its copy there.
func (b *Builder) stage(dst []byte) []byte {
	size := 0
	for _, e := range b.uniq {
		size += e.end - e.start
	}
	dst = slices.Grow(dst, size)
	for i := range b.uniq {
		e := &b.uniq[i]
		start := len(dst)
		dst = append(dst, b.arena[e.start:e.end]...)
		e.start, e.end = start, len(dst)
	}
	return dst
}

// BuildAll stores the distributions closed by Next, in order, in dst
// (one element per Next call) and empties the builder. The
// distributions share three allocations — one backing string, one term
// slice, one probability slice — and each is cut from them
// capacity-limited.
func (b *Builder) BuildAll(dst []Distribution) {
	b.collapse()
	clear(dst)
	if n := len(b.ranked); n > 0 {
		terms, probs := make([]string, n), make([]float64, n)
		staged := len(b.arena)
		b.arena = b.stage(b.arena)
		backing := string(b.arena[staged:])
		for k := range b.bounds {
			first, last, total := b.run(k)
			for i, rc := range b.ranked[first:last] {
				e := b.uniq[rc.rank]
				terms[first+i] = backing[e.start-staged : e.end-staged]
				probs[first+i] = float64(rc.n) / float64(total)
			}
			if last > first {
				dst[k] = Distribution{terms: terms[first:last:last], probs: probs[first:last:last], total: total}
			}
		}
	}
	b.reset()
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
	b.collapse()
	if len(b.ranked) > 0 {
		dst = slices.Grow(dst, b.bounds[len(b.bounds)-1])
		staged := len(b.arena)
		b.arena = b.stage(b.arena)
		backing := string(b.arena[staged:])
		for _, rc := range b.ranked {
			e := b.uniq[rc.rank]
			for t := backing[e.start-staged : e.end-staged]; rc.n > 0; rc.n-- {
				dst = append(dst, t)
			}
		}
	}
	b.reset()
	return dst
}

// Dictionary is the storage of a page's distributions built over one
// ranked dictionary (BuildDictionary): the page's distinct terms,
// sorted, back to back in one byte array, and the arrays the
// distributions are cut from. It is reused from page to page, so a
// page built into a warm Dictionary allocates nothing. The term strings
// of its distributions are views of its bytes: they are valid until the
// next BuildDictionary into it, and whatever must outlive that copies
// them. The zero Dictionary is empty and ready for use.
type Dictionary struct {
	bytes  []byte    // the distinct terms in rank order, back to back
	terms  []string  // each distribution's terms, views of bytes
	ranks  []int32   // each distribution's terms' ranks
	floats []float64 // each distribution's probabilities, then their square roots
}

// Cap returns how many distribution terms and how many bytes of
// distinct terms d holds room for: what a pool that keeps d keeps.
func (d *Dictionary) Cap() (termCap, byteCap int) { return cap(d.terms), cap(d.bytes) }

// Ranked is a distribution over a page's dictionary (BuildDictionary):
// the lexicographic ranks of its terms, ascending, beside each term's
// probability and the square root of it. Two distributions over one
// dictionary compare by rank exactly as their Distributions compare by
// term, so HellingerRanked merges integers and takes no square root.
type Ranked struct {
	ranks        []int32
	probs, roots []float64
}

// Ranks returns the ranks of the distribution's terms, ascending and
// parallel to its Distribution's Terms. The slice is shared; callers
// must not modify it.
func (r Ranked) Ranks() []int32 { return r.ranks }

// BuildDictionary stores the distributions closed by Next, in order, in
// dst and, ranked, in ranked (one element of each per Next call), and
// empties the builder. The page's distinct terms are sorted once, and
// every distribution is cut from d's arrays: its terms are views of d's
// bytes, valid until the next BuildDictionary into d. Each distribution
// equals the one BuildAll would store, term for term and bit for bit.
func (b *Builder) BuildDictionary(dst []Distribution, ranked []Ranked, d *Dictionary) {
	b.collapse()
	clear(dst)
	clear(ranked)
	n := len(b.ranked)
	d.bytes = b.stage(d.bytes[:0])
	d.terms, d.ranks, d.floats = sized(d.terms, n), sized(d.ranks, n), sized(d.floats, 2*n)
	probs, roots := d.floats[:n], d.floats[n:]
	for k := range b.bounds {
		first, last, total := b.run(k)
		for i := first; i < last; i++ {
			rc := b.ranked[i]
			e := b.uniq[rc.rank]
			p := float64(rc.n) / float64(total)
			d.terms[i], d.ranks[i], probs[i], roots[i] = view(d.bytes[e.start:e.end]), rc.rank, p, math.Sqrt(p)
		}
		if last > first {
			dst[k] = Distribution{terms: d.terms[first:last:last], probs: probs[first:last:last], total: total}
			ranked[k] = Ranked{ranks: d.ranks[first:last:last], probs: probs[first:last:last], roots: roots[first:last:last]}
		}
	}
	b.reset()
}

// view returns the bytes of t as a string without copying them; the
// string reads whatever is later written there.
func view(t []byte) string {
	if len(t) == 0 {
		return ""
	}
	return unsafe.String(&t[0], len(t))
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
	terms []string  // sorted ascending: substrings of one backing string, or views of a Dictionary
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
