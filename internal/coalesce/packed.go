package coalesce

// Target entries. A detector positive's target result is stored as one
// pointer-free string (packTarget) for the entry's whole life, and every
// hit decodes it (decodeTarget) into storage the request lends, so a hit
// allocates nothing and an entry never grows when it is read.

import (
	"encoding/binary"
	"math"
	"slices"

	"knowphish/internal/core"
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
// not read back from eng as they are: such a result is not memoized.
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

// decodeTarget decodes a string packTarget made against eng. The
// result's lists are slices of buf's arrays, grown as needed: candidate
// strings are eng's own, read under one lock, and terms are substrings
// of p, so a decode into arrays large enough allocates nothing.
func decodeTarget(eng *search.Engine, p string, buf *core.TargetBuffer) target.Result {
	r := packReader{p}
	res := target.Result{Verdict: target.Verdict(r.varint()), StepsUsed: int(r.varint())}
	flags := r.byte()
	res.UsedOCR = flags&packUsedOCR != 0
	n := int(r.uvarint())
	var lens [3]int
	for i := range lens {
		lens[i] = int(r.uvarint())
	}
	cands := slices.Grow(buf.Candidates[:0], n)[:n]
	if cands == nil {
		cands = []target.Candidate{} // an empty list is not a nil one
	}
	var stack [32]int32 // an identifier keeps at most 30 candidates
	ids := stack[:0]
	for i := range cands {
		ids = append(ids, int32(r.uvarint()))
		cands[i].Count = int(r.varint())
		cands[i].Score = math.Float64frombits(r.uint64())
	}
	eng.Domains(ids, func(i int, rdn, mld string) { cands[i].RDN, cands[i].MLD = rdn, mld })
	if flags&packCandidates != 0 {
		res.Candidates = cands[:n:n]
	}
	total := lens[0] + lens[1] + lens[2]
	terms := slices.Grow(buf.Terms[:0], total)[:total]
	if terms == nil {
		terms = []string{}
	}
	for i := range terms {
		terms[i] = r.next(int(r.uvarint()))
	}
	buf.Candidates, buf.Terms = cands, terms
	for i, list := range termLists(&res) {
		if flags&(packBoosted<<i) != 0 {
			*list, terms = terms[:lens[i]:lens[i]], terms[lens[i]:]
		}
	}
	return res
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
