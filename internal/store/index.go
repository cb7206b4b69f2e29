package store

import (
	"hash/maphash"
	"slices"
	"sort"
)

// rowChunk is the row count, and capacity, of a chunk: 1 024 rows of
// 104 B are thirteen whole 8 KiB runtime pages, the fewest rows that
// fill whole pages (512 are 6.5, which the allocator rounds up to 7).
// TestRowChunkFillsWholePages pins the row size this assumes.
const rowChunk = 1024

// noRow ends a chain.
const noRow = -1

// A row's two flags ride above its frame length, which never reaches
// them: no frame is longer than frameHeader+maxFramePayload.
const (
	rowPhish = 1 << 31 // Record.Outcome.FinalPhish
	rowDead  = 1 << 30 // superseded: see memIndex
	rowLen   = rowDead - 1
)

// The chains a row is linked into (row.next), and seqOrder, the walk
// down the slab itself.
const (
	linkURL = iota
	linkStart
	linkTarget
	links
	seqOrder = -1
)

// row is one record's index row: what Scan filters and orders on, and
// where the frame is — the store reads it from its segment on demand.
type row struct {
	seq      uint64
	scoredAt int64  // Record.ScoredAt.UnixNano()
	landing  string // Record.LandingURL
	start    string // Record.URL ("" when equal to landing)
	fp       string // Record.Fingerprint
	seg      uint64 // segment ID holding the frame
	off      int64  // frame offset within the segment
	n        uint32 // frame length in bytes, under rowPhish and rowDead

	target uint32 // Record.Target's id in the name table; 0 is ""

	// next is the next older row of each chain the row is in, or noRow.
	next [links]int32
}

func (r *row) dead() bool { return r.n&rowDead != 0 }

func (r *row) loc() frameLoc { return frameLoc{r.seg, r.off, r.n & rowLen} }

// memIndex is the in-memory view of the live records: one slab of
// rows, in chunks so that growing it never copies more than one chunk,
// plus the supersede identity and the chains Scan and Get walk. A row
// holds no pointer but the strings it shares with its record. A
// superseded row stays in the slab, dead, until a rebuild, and in a
// chain until the first walk past it cuts it out. Not self-locking:
// the owning store serializes every call, reads too, since they write.
type memIndex struct {
	chunks [][]row // rowChunk rows each but the last; ascending by seq unless unsorted
	rows   int32   // rows in the slab, dead ones included
	holes  int     // dead rows

	// byKey finds a supersede identity's (landing, fp) live row by a
	// seeded hash of the pair, probing on past a cell whose row has
	// other strings. A supersede takes over its key's cell, so no key is
	// ever removed and no probe stops short.
	byKey map[uint64]int32
	seed  maphash.Seed
	mask  uint64 // every key hash is cut to it; tests narrow it to force collisions

	// Chain heads, each the newest row's number + 1 (so a key or id
	// with no row reads as noRow): landing URL, starting URL (≠
	// landing), then target by name id.
	byURL, byStart map[string]int32
	byTarget       []int32

	names []string          // id → target name; byTarget grows with it
	ids   map[string]uint32 // name → id; "" is 0

	// lazy: the rows came from a snapshot and nothing hangs off them
	// yet, so a read-mostly reopen (the common kpserve restart) serves
	// newest-first scans straight off the slab. unsorted: a replayed row
	// landed below a newer one. A read that needs more rebuilds first.
	lazy, unsorted bool

	nextSeq uint64 // next sequence number to assign (max seen + 1)
}

func newMemIndex() *memIndex {
	ix := &memIndex{seed: maphash.MakeSeed(), mask: ^uint64(0), nextSeq: 1}
	ix.rebuild() // of no rows: makes the maps and the name table
	return ix
}

func (ix *memIndex) at(i int32) *row { return &ix.chunks[i/rowChunk][i%rowChunk] }

// live returns the number of live (non-superseded) rows.
func (ix *memIndex) live() int { return int(ix.rows) - ix.holes }

func (ix *memIndex) intern(s string) uint32 {
	id, ok := ix.ids[s]
	if !ok {
		id = uint32(len(ix.names))
		ix.names = append(ix.names, s)
		ix.ids[s] = id
		ix.byTarget = append(ix.byTarget, 0)
	}
	return id
}

// each yields the live rows in slab order.
func (ix *memIndex) each(yield func(*row) bool) {
	for _, ch := range ix.chunks {
		for k := range ch {
			if r := &ch[k]; !r.dead() && !yield(r) {
				return
			}
		}
	}
}

// insert indexes rec, whose frame is at loc, superseding any older row
// for the same key. Replay order is irrelevant: whatever order segments
// or log lines arrive in, the highest seq for a key wins, and a
// duplicate or older frame (compaction crash leftovers, snapshot
// overlap) is dropped.
func (ix *memIndex) insert(rec *Record, loc frameLoc) {
	if ix.lazy {
		ix.rebuild()
	}
	r := row{seq: rec.Seq, scoredAt: rec.ScoredAt.UnixNano(), landing: rec.LandingURL, fp: rec.Fingerprint,
		seg: loc.seg, off: loc.off, n: loc.n,
		target: ix.intern(rec.Target)}
	if rec.URL != rec.LandingURL {
		r.start = rec.URL
	}
	if rec.Outcome.FinalPhish {
		r.n |= rowPhish
	}
	ix.add(r)
	if ix.holes >= 1024 && ix.holes*2 >= int(ix.rows) {
		ix.rebuild() // amortized O(1) per supersede
	}
}

// add links r in unless its key already has a row at least as new,
// which it otherwise supersedes.
func (ix *memIndex) add(r row) {
	if r.seq >= ix.nextSeq {
		ix.nextSeq = r.seq + 1
	}
	h, old := ix.find(r.landing, r.fp)
	if old != noRow {
		o := ix.at(old)
		if o.seq >= r.seq {
			return
		}
		o.n |= rowDead
		ix.holes++
	}
	i := ix.rows
	if i > 0 && ix.at(i-1).seq > r.seq {
		ix.unsorted = true
	}
	// The new head links past dead ones (the row just superseded, say).
	r.next = [links]int32{ix.skip(ix.byURL[r.landing]-1, linkURL), noRow, noRow}
	ix.byURL[r.landing] = i + 1
	if r.start != "" {
		r.next[linkStart], ix.byStart[r.start] = ix.skip(ix.byStart[r.start]-1, linkStart), i+1
	}
	if r.target != 0 {
		r.next[linkTarget], ix.byTarget[r.target] = ix.skip(ix.byTarget[r.target]-1, linkTarget), i+1
	}
	ix.byKey[h] = i
	ix.place(r)
}

// skip returns the first live row of a chain from row i down.
func (ix *memIndex) skip(i int32, link int) int32 {
	for i != noRow && ix.at(i).dead() {
		i = ix.at(i).next[link]
	}
	return i
}

// first returns the first live row of the chain *h heads (a row number
// + 1), and cuts the dead rows above it off.
func (ix *memIndex) first(h *int32, link int) int32 {
	*h = ix.skip(*h-1, link) + 1
	return *h - 1
}

// head is first for a chain headed in a map. A chain it empties keeps
// its key, heading no row, until a rebuild.
func (ix *memIndex) head(m map[string]int32, key string, link int) int32 {
	h := m[key]
	i := ix.skip(h-1, link)
	if i+1 != h {
		m[key] = i + 1
	}
	return i
}

// find returns the byKey cell holding (landing, fp) and its row, or the
// free cell the key would take and noRow.
func (ix *memIndex) find(landing, fp string) (h uint64, i int32) {
	h = (maphash.String(ix.seed, landing)*31 ^ maphash.String(ix.seed, fp)) & ix.mask
	for ; ; h++ {
		i, ok := ix.byKey[h]
		if !ok {
			return h, noRow
		}
		if r := ix.at(i); r.landing == landing && r.fp == fp {
			return h, i
		}
	}
}

// place writes r into the slab's next slot.
func (ix *memIndex) place(r row) {
	c, k := int(ix.rows/rowChunk), int(ix.rows%rowChunk)
	if c == len(ix.chunks) {
		ix.chunks = append(ix.chunks, make([]row, 0, rowChunk))
	}
	ch := &ix.chunks[c]
	if k == len(*ch) {
		*ch = (*ch)[:k+1]
	}
	(*ch)[k] = r
	ix.rows++
}

// materialize builds a lazy index's chains and sorts an unsorted one.
func (ix *memIndex) materialize() {
	if ix.lazy || ix.unsorted {
		ix.rebuild()
	}
}

// inOrder sorts an unsorted index: what a walk down the slab needs.
func (ix *memIndex) inOrder() {
	if ix.unsorted {
		ix.rebuild()
	}
}

// rebuild lays the live rows out again in place, in seq order, and
// builds every key, head, link and name over them in one pass — into
// fresh maps, sized for the rows, since Go maps never shrink. A
// duplicate key (a hand-edited snapshot) is superseded as insert would.
func (ix *memIndex) rebuild() {
	if ix.unsorted {
		sort.Sort(slabOrder{ix})
	}
	n, names := ix.rows, ix.names
	ix.byKey = make(map[uint64]int32, ix.live())
	ix.byURL, ix.byStart = make(map[string]int32, ix.live()), map[string]int32{}
	ix.byTarget = append(ix.byTarget[:0], 0)
	ix.names, ix.ids = []string{""}, map[string]uint32{"": 0}
	ix.rows, ix.holes, ix.lazy, ix.unsorted = 0, 0, false, false
	for i := int32(0); i < n; i++ {
		// Rows only move down, so the one read here is never one that
		// add has already overwritten.
		if r := *ix.at(i); !r.dead() {
			r.target = ix.intern(names[r.target])
			ix.add(r)
		}
	}
	// Release the slots past the last row, and the chunks they empty.
	for c, ch := range ix.chunks {
		keep := min(max(int(ix.rows)-c*rowChunk, 0), len(ch))
		clear(ch[keep:])
		ix.chunks[c] = ch[:keep]
	}
	ix.chunks = slices.DeleteFunc(ix.chunks, func(ch []row) bool { return len(ch) == 0 })
}

// slabOrder sorts the slab's rows by seq.
type slabOrder struct{ ix *memIndex }

func (s slabOrder) Len() int           { return int(s.ix.rows) }
func (s slabOrder) Less(i, j int) bool { return s.ix.at(int32(i)).seq < s.ix.at(int32(j)).seq }
func (s slabOrder) Swap(i, j int) {
	a, b := s.ix.at(int32(i)), s.ix.at(int32(j))
	*a, *b = *b, *a
}

// search returns the first row number whose seq is at least seq, on a
// slab in seq order.
func (ix *memIndex) search(seq uint64) int32 {
	return int32(sort.Search(int(ix.rows), func(i int) bool { return ix.at(int32(i)).seq >= seq }))
}

// move repoints the row holding seq, if it is still there and live, at
// a copy of its frame: compaction's flip. Appends since the copy was
// taken kept the slab in seq order, and a rebuild only drops rows.
func (ix *memIndex) move(seq uint64, to frameLoc) {
	ix.inOrder()
	if i := ix.search(seq); i < ix.rows {
		if r := ix.at(i); r.seq == seq && !r.dead() {
			r.seg, r.off, r.n = to.seg, to.off, r.n&^rowLen|to.n
		}
	}
}

// get returns the location of the newest live row whose landing or
// starting URL equals url: the newer of two chain heads.
func (ix *memIndex) get(url string) (frameLoc, bool) {
	ix.materialize()
	i, j := ix.head(ix.byURL, url, linkURL), ix.head(ix.byStart, url, linkStart)
	if i == noRow || j != noRow && ix.at(j).seq > ix.at(i).seq {
		i = j
	}
	if i == noRow {
		return frameLoc{}, false
	}
	return ix.at(i).loc(), true
}

// scan walks the narrowest applicable chain newest-first and appends
// to dst the locations of up to q.Limit rows matching q (<= 0 →
// unbounded), starting strictly below cursor when hasCursor. last is
// the seq of the last row appended; more reports whether at least one
// further matching row exists past the returned page.
func (ix *memIndex) scan(dst []frameLoc, q Query, cursor uint64, hasCursor bool) (locs []frameLoc, last uint64, more bool) {
	if q.Target != "" || q.URL != "" {
		ix.materialize()
	} else {
		ix.inOrder() // no chain needed; stays fast on a lazy index
	}
	// The target the query filters on, as an id. A name the table lacks
	// matches no row.
	want, ok := ix.ids[q.Target]
	if !ok {
		return dst, 0, false
	}
	type walk struct {
		i    int32
		link int
	}
	ws := [2]walk{{noRow, seqOrder}, {noRow, seqOrder}} // only the URL query walks two
	switch {
	case q.Target != "":
		ws[0] = walk{ix.first(&ix.byTarget[want], linkTarget), linkTarget}
	case q.URL != "":
		ws[0], ws[1] = walk{ix.head(ix.byURL, q.URL, linkURL), linkURL}, walk{ix.head(ix.byStart, q.URL, linkStart), linkStart}
	case hasCursor:
		ws[0].i = ix.search(cursor) - 1
	default:
		ws[0].i = ix.rows - 1
	}
	if q.Limit > 0 {
		dst = slices.Grow(dst, min(q.Limit, ix.live()))
	}
	// Merge-walk the chains (each descending by seq) so the result is
	// strictly descending — the deterministic order every query path
	// guarantees and cursors encode.
	n := 0
	for {
		w := &ws[0]
		if ws[1].i != noRow && (w.i == noRow || ix.at(ws[1].i).seq > ix.at(w.i).seq) {
			w = &ws[1]
		}
		if w.i == noRow {
			return dst, last, false
		}
		r := ix.at(w.i)
		if w.link == seqOrder {
			if w.i--; r.dead() {
				continue
			}
		} else {
			// A chain walk stands on live rows only: it cuts the dead
			// ones below r out on its way past.
			w.i = ix.skip(r.next[w.link], w.link)
			r.next[w.link] = w.i
		}
		if (hasCursor && r.seq >= cursor) || !matches(r, q, want) {
			continue
		}
		if q.Limit > 0 && n >= q.Limit {
			return dst, last, true
		}
		dst = append(dst, r.loc())
		last = r.seq
		n++
	}
}

// matches applies the Query filters to a row; target is the id of the
// query's target (0 for no filter).
func matches(r *row, q Query, target uint32) bool {
	if target != 0 && r.target != target {
		return false
	}
	if q.URL != "" && r.landing != q.URL && r.start != q.URL {
		return false
	}
	if !q.Since.IsZero() && r.scoredAt < q.Since.UnixNano() {
		return false
	}
	if !q.Until.IsZero() && r.scoredAt >= q.Until.UnixNano() {
		return false
	}
	if q.PhishOnly && r.n&rowPhish == 0 {
		return false
	}
	return true
}
