package store

// The in-memory index the row slab replaced: one *entry object per
// record, a seq-ordered pointer slice and map[string][]*entry
// secondary indexes. It is kept verbatim, types renamed, as the
// differential oracle of FuzzIndexMatchesReference, less the model and
// source filters the store no longer has.

import (
	"slices"
	"sort"
)

// refEntry is one live record's index row. It keeps only the on-disk
// location (seg/off/n) and the store reads the frame from its segment
// on demand, so a store of millions of verdicts costs index-row memory,
// not record memory.
type refEntry struct {
	seq      uint64
	start    string // Record.URL ("" when equal to landing)
	landing  string
	fp       string
	target   string
	scoredAt int64 // Record.ScoredAt.UnixNano()
	phish    bool

	// dead marks a superseded entry still occupying its bySeq slot.
	// Holes keep bySeq binary-searchable (the seq stays); scans skip
	// them and maybeShrink reclaims them in bulk.
	dead bool

	seg uint64 // segment ID holding the frame
	off int64  // frame offset within the segment
	n   uint32 // full frame length in bytes
}

// refMetaOf fills an index row from a record (location left to the
// caller).
func refMetaOf(rec *Record) *refEntry {
	e := &refEntry{
		seq:      rec.Seq,
		landing:  rec.LandingURL,
		fp:       rec.Fingerprint,
		target:   rec.Target,
		scoredAt: rec.ScoredAt.UnixNano(),
		phish:    rec.Outcome.FinalPhish,
	}
	if rec.URL != rec.LandingURL {
		e.start = rec.URL
	}
	return e
}

// refPageKey is the supersede identity — a struct key rather than a
// concatenated string so byKey lookups and bulk loads never allocate.
type refPageKey struct{ landing, fp string }

func (e *refEntry) key() refPageKey { return refPageKey{e.landing, e.fp} }

// refIndex is the in-memory view of the live records: the supersede
// map plus the secondary indexes the Scan filters and Get are served
// from. Not self-locking — the owning store serializes access.
type refIndex struct {
	byKey map[refPageKey]*refEntry // supersede identity → newest entry

	// bySeq is every entry ascending by seq; superseded entries stay as
	// dead holes until maybeShrink. It is both the default scan order
	// (walked backwards: newest first) and the snapshot iteration order.
	bySeq []*refEntry
	holes int

	byURL    map[string][]*refEntry // landing URL → entries, ascending seq
	byStart  map[string][]*refEntry // starting URL (≠ landing) → entries
	byTarget map[string][]*refEntry // identified target RDN → entries

	// lazy holds snapshot rows whose map indexes have not been built
	// yet (see bulkLoad/materialize). While set, bySeq aliases it and
	// byKey and the secondary maps are empty.
	lazy []*refEntry

	nextSeq uint64 // next sequence number to assign (max seen + 1)
}

func newRefIndex() *refIndex {
	return &refIndex{
		byKey:    make(map[refPageKey]*refEntry),
		byURL:    make(map[string][]*refEntry),
		byStart:  make(map[string][]*refEntry),
		byTarget: make(map[string][]*refEntry),
		nextSeq:  1,
	}
}

// insert indexes e, superseding any older entry for the same key.
// Replay order is irrelevant: whatever order segments or log lines
// arrive in, the highest seq for a key wins, and a duplicate or older
// frame (compaction crash leftovers, snapshot overlap) is dropped.
// It returns the entry e displaced, and whether e was actually
// installed (false → e itself was the stale duplicate).
func (ix *refIndex) insert(e *refEntry) (displaced *refEntry, installed bool) {
	ix.materialize()
	if e.seq >= ix.nextSeq {
		ix.nextSeq = e.seq + 1
	}
	k := e.key()
	if old := ix.byKey[k]; old != nil {
		if old.seq >= e.seq {
			return nil, false
		}
		ix.unindex(old)
		displaced = old
	}
	ix.byKey[k] = e
	ix.bySeq = refSeqInsert(ix.bySeq, e)
	ix.byURL[e.landing] = refSeqInsert(ix.byURL[e.landing], e)
	if e.start != "" {
		ix.byStart[e.start] = refSeqInsert(ix.byStart[e.start], e)
	}
	if e.target != "" {
		ix.byTarget[e.target] = refSeqInsert(ix.byTarget[e.target], e)
	}
	ix.maybeShrink()
	return displaced, true
}

// bulkLoad seeds an empty index from snapshot rows. A snapshot this
// engine wrote holds live rows only — strictly seq-ascending, one per
// key — so bySeq can adopt the slice as-is and the map indexes can be
// deferred entirely: a read-mostly reopen (the common kpserve restart)
// serves newest-first scans straight off bySeq and never pays for maps
// it does not consult. The first operation that needs a map (an append,
// a Get, a filtered scan, compaction) triggers materialize. Anything
// violating the snapshot invariants (or a non-empty index) falls back
// to the checked insert path.
func (ix *refIndex) bulkLoad(rows []*refEntry) {
	ok := len(ix.byKey) == 0 && len(ix.bySeq) == 0 && ix.lazy == nil
	if ok {
		var last uint64
		for _, e := range rows {
			if e.seq <= last || e.dead {
				ok = false
				break
			}
			last = e.seq
		}
	}
	if !ok {
		for _, e := range rows {
			ix.insert(e)
		}
		return
	}
	ix.bySeq = rows // bulkLoad owns the slice; callers never reuse it
	ix.lazy = rows
	if n := len(rows); n > 0 && rows[n-1].seq >= ix.nextSeq {
		ix.nextSeq = rows[n-1].seq + 1
	}
}

// materialize builds the deferred map indexes for bulkLoad-ed rows.
// Presizing avoids the rehash cascade of growing a map to 100k keys one
// insert at a time, and first-entry lists are full-capacity subslices
// of rows itself (one backing array for the whole index) rather than
// 100k single-element allocations; the capped cap makes a later append
// copy out instead of clobbering the neighboring row.
func (ix *refIndex) materialize() {
	rows := ix.lazy
	if rows == nil {
		return
	}
	ix.lazy = nil
	byKey := make(map[refPageKey]*refEntry, len(rows))
	for _, e := range rows {
		k := e.key()
		if _, dup := byKey[k]; dup {
			// A duplicate key slipped past the CRC (hand-edited
			// snapshot): re-insert everything through the checked path.
			ix.bySeq = nil
			for _, e := range rows {
				ix.insert(e)
			}
			return
		}
		byKey[k] = e
	}
	byURL := make(map[string][]*refEntry, len(rows))
	for i, e := range rows {
		if cur, seen := byURL[e.landing]; seen {
			byURL[e.landing] = append(cur, e)
		} else {
			byURL[e.landing] = rows[i : i+1 : i+1]
		}
		if e.start != "" {
			if cur, seen := ix.byStart[e.start]; seen {
				ix.byStart[e.start] = append(cur, e)
			} else {
				ix.byStart[e.start] = rows[i : i+1 : i+1]
			}
		}
		if e.target != "" {
			ix.byTarget[e.target] = append(ix.byTarget[e.target], e)
		}
	}
	ix.byKey = byKey
	ix.byURL = byURL
}

// live returns the number of live (non-superseded) entries.
func (ix *refIndex) live() int { return len(ix.bySeq) - ix.holes }

// unindex removes an entry from the secondary indexes and turns its
// bySeq slot into a dead hole (an O(1) supersede; bulk reclaim happens
// in maybeShrink so a hot supersede path never memmoves the whole
// sequence slice).
func (ix *refIndex) unindex(old *refEntry) {
	old.dead = true
	ix.holes++
	ix.byURL[old.landing] = refSeqRemove(ix.byURL, old.landing, old)
	if old.start != "" {
		ix.byStart[old.start] = refSeqRemove(ix.byStart, old.start, old)
	}
	if old.target != "" {
		ix.byTarget[old.target] = refSeqRemove(ix.byTarget, old.target, old)
	}
}

// maybeShrink compacts bySeq once dead holes outnumber live entries
// (amortized O(1) per supersede).
func (ix *refIndex) maybeShrink() {
	if ix.holes < 1024 || ix.holes*2 < len(ix.bySeq) {
		return
	}
	live := ix.bySeq[:0]
	for _, e := range ix.bySeq {
		if !e.dead {
			live = append(live, e)
		}
	}
	// Zero the reclaimed tail so dead entries don't leak through the
	// retained backing array.
	for i := len(live); i < len(ix.bySeq); i++ {
		ix.bySeq[i] = nil
	}
	ix.bySeq = live
	ix.holes = 0
}

// get returns the newest entry whose landing or starting URL equals
// url, or nil.
func (ix *refIndex) get(url string) *refEntry {
	ix.materialize()
	var best *refEntry
	if s := ix.byURL[url]; len(s) > 0 {
		best = s[len(s)-1]
	}
	if s := ix.byStart[url]; len(s) > 0 {
		if e := s[len(s)-1]; best == nil || e.seq > best.seq {
			best = e
		}
	}
	return best
}

// scan walks the narrowest applicable index newest-first and appends
// to dst the locations of up to q.Limit entries matching q (<= 0 →
// unbounded), starting strictly below cursor when hasCursor. last is
// the seq of the last entry appended; more reports whether at least
// one further matching entry exists past the returned page.
func (ix *refIndex) scan(dst []frameLoc, q Query, cursor uint64, hasCursor bool) (locs []frameLoc, last uint64, more bool) {
	var lists [2][]*refEntry // only the URL query walks two
	switch {
	case q.Target != "":
		ix.materialize()
		lists[0] = ix.byTarget[q.Target]
	case q.URL != "":
		ix.materialize()
		lists[0], lists[1] = ix.byURL[q.URL], ix.byStart[q.URL]
	default:
		lists[0] = ix.bySeq // no map needed; stays fast on a lazy index
	}
	if q.Limit > 0 {
		dst = slices.Grow(dst, min(q.Limit, len(lists[0])+len(lists[1])))
	}
	// Merge-walk the candidate lists backwards (each ascending by seq)
	// so the result is strictly descending — the deterministic order
	// every query path guarantees and cursors encode.
	pos := [2]int{len(lists[0]) - 1, len(lists[1]) - 1}
	n := 0
	for {
		best := -1
		for i, l := range lists {
			if pos[i] >= 0 && (best < 0 || l[pos[i]].seq > lists[best][pos[best]].seq) {
				best = i
			}
		}
		if best < 0 {
			return dst, last, false
		}
		e := lists[best][pos[best]]
		pos[best]--
		if e.dead || (hasCursor && e.seq >= cursor) || !refMatches(e, q) {
			continue
		}
		if q.Limit > 0 && n >= q.Limit {
			return dst, last, true
		}
		dst = append(dst, frameLoc{e.seg, e.off, e.n})
		last = e.seq
		n++
	}
}

// matches applies the Query filters to an index row.
func refMatches(e *refEntry, q Query) bool {
	if q.Target != "" && e.target != q.Target {
		return false
	}
	if q.URL != "" && e.landing != q.URL && e.start != q.URL {
		return false
	}
	if !q.Since.IsZero() && e.scoredAt < q.Since.UnixNano() {
		return false
	}
	if !q.Until.IsZero() && e.scoredAt >= q.Until.UnixNano() {
		return false
	}
	if q.PhishOnly && !e.phish {
		return false
	}
	return true
}

// refSeqInsert adds e to a seq-ascending slice. Appends (the live path)
// are O(1); out-of-order replay falls back to a binary-searched insert.
func refSeqInsert(s []*refEntry, e *refEntry) []*refEntry {
	if n := len(s); n == 0 || s[n-1].seq < e.seq {
		return append(s, e)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].seq >= e.seq })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// refSeqRemove deletes e from the slice at m[k] (emptied keys are removed
// from the map so one-shot URLs don't pin empty slices forever).
func refSeqRemove(m map[string][]*refEntry, k string, e *refEntry) []*refEntry {
	s := m[k]
	i := sort.Search(len(s), func(i int) bool { return s[i].seq >= e.seq })
	if i >= len(s) || s[i] != e {
		return s
	}
	if len(s) == 1 {
		// Never write into a single-entry list: materialize builds those
		// as subslices of the bySeq/snapshot backing array, so nilling
		// the slot would punch a nil into bySeq and crash the next scan.
		delete(m, k)
		return nil
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	s = s[:len(s)-1]
	return s
}
