package coalesce

// Target entries, packed and expanded. A detector positive's target
// result is stored as one pointer-free string (packTarget) and turned
// back into a *target.Result on its first hit (expandTarget); after that
// the entry holds the result, as an entry whose result does not pack
// always has (ownedResult).

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"

	"knowphish/internal/search"
	"knowphish/internal/target"
)

// Flag bits of a packed entry: UsedOCR, and which lists are non-nil (a
// nil term list renders as null, an empty one as []).
const (
	packUsedOCR = 1 << iota
	packCandidates
	packBoosted // then packBoosted<<1 for Prominent, packBoosted<<2 for OCRProminent
)

// termLists are res's three term lists, in the order an entry keeps
// their terms.
func termLists(res *target.Result) [3]*[]string {
	return [3]*[]string{&res.Keyterms.Boosted, &res.Keyterms.Prominent, &res.OCRProminent}
}

// packTarget encodes res for the target table, naming each candidate by
// its domain id in eng. The string is, in order: the verdict and the
// step (varints); a flags byte; the candidate count and the three term
// list lengths (uvarints); per candidate its domain id (uvarint), count
// (varint) and score bits (8 bytes, little endian); per term, Boosted
// then Prominent then OCRProminent, its length (uvarint) and its bytes.
// It reports false, and packs nothing, when a candidate's RDN and MLD do
// not read back from eng as they are: such a result is kept expanded.
func packTarget(eng *search.Engine, res target.Result) (string, bool) {
	var stack [512]byte // a packed entry is about 160 bytes
	b := stack[:0]
	lists := termLists(&res)
	flags := byte(0)
	if res.UsedOCR {
		flags |= packUsedOCR
	}
	if res.Candidates != nil {
		flags |= packCandidates
	}
	for i, list := range lists {
		if *list != nil {
			flags |= packBoosted << i
		}
	}
	b = binary.AppendVarint(b, int64(res.Verdict))
	b = binary.AppendVarint(b, int64(res.StepsUsed))
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(res.Candidates)))
	for _, list := range lists {
		b = binary.AppendUvarint(b, uint64(len(*list)))
	}
	for _, c := range res.Candidates {
		id, ok := eng.DomainID(c.RDN)
		if !ok {
			return "", false
		}
		if rdn, mld := eng.Domain(id); rdn != c.RDN || mld != c.MLD {
			return "", false
		}
		b = binary.AppendUvarint(b, uint64(id))
		b = binary.AppendVarint(b, int64(c.Count))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Score))
	}
	for _, list := range lists {
		for _, t := range *list {
			b = binary.AppendUvarint(b, uint64(len(t)))
			b = append(b, t...)
		}
	}
	return string(b), true
}

// expandTarget decodes a string packTarget made against eng into the
// result ownedResult would have kept: candidate strings are eng's own,
// and the terms share one new string. It allocates at most four times —
// the Result, the candidate array, the term array and the term bytes.
func expandTarget(eng *search.Engine, p string) *target.Result {
	r := packReader{p}
	res := target.Result{Verdict: target.Verdict(r.varint()), StepsUsed: int(r.varint())}
	flags := r.byte()
	res.UsedOCR = flags&packUsedOCR != 0
	cands := int(r.uvarint())
	var lens [3]int
	for i := range lens {
		lens[i] = int(r.uvarint())
	}
	if flags&packCandidates != 0 {
		res.Candidates = make([]target.Candidate, cands)
		for i := range res.Candidates {
			c := &res.Candidates[i]
			c.RDN, c.MLD = eng.Domain(int32(r.uvarint()))
			c.Count = int(r.varint())
			c.Score = math.Float64frombits(r.uint64())
		}
	}
	terms := make([]string, lens[0]+lens[1]+lens[2])
	for i := range terms {
		terms[i] = r.next(int(r.uvarint()))
	}
	cloneTerms(terms)
	for i, list := range termLists(&res) {
		if flags&(packBoosted<<i) != 0 {
			*list, terms = terms[:lens[i]:lens[i]], terms[lens[i]:]
		}
	}
	return &res
}

// ownedResult is the copy of res an entry keeps when it does not pack.
// The identifier's term lists are substrings of the analysis's term
// arenas — page-sized, client-chosen bytes an entry must not keep alive
// — so they are cloned, in one piece: one string holds the bytes of
// every term and one array the three lists. Candidates name indexed
// domains, not page bytes, and the identifier returns them at exact
// size.
func ownedResult(res target.Result) *target.Result {
	lists := termLists(&res)
	owned := slices.Concat(*lists[0], *lists[1], *lists[2])
	cloneTerms(owned)
	for _, list := range lists {
		if n := len(*list); n > 0 {
			*list, owned = owned[:n:n], owned[n:]
		}
	}
	return &res
}

// cloneTerms points every term at one new string holding all their
// bytes.
func cloneTerms(terms []string) {
	size := 0
	for _, t := range terms {
		size += len(t)
	}
	var b strings.Builder
	b.Grow(size)
	for _, t := range terms {
		b.WriteString(t)
	}
	backing := b.String()
	for i, t := range terms {
		terms[i], backing = backing[:len(t)], backing[len(t):]
	}
}

// packReader reads a packed entry front to back. Its input is always a
// string packTarget wrote, so it checks nothing.
type packReader struct{ s string }

func (r *packReader) next(n int) string {
	v := r.s[:n]
	r.s = r.s[n:]
	return v
}

func (r *packReader) byte() byte { return r.next(1)[0] }

func (r *packReader) uvarint() uint64 {
	var x uint64
	for shift := 0; ; shift += 7 {
		c := r.byte()
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
}

func (r *packReader) varint() int64 {
	ux := r.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

func (r *packReader) uint64() uint64 {
	s, x := r.next(8), uint64(0)
	for i := 7; i >= 0; i-- {
		x = x<<8 | uint64(s[i])
	}
	return x
}
