package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"knowphish/internal/core"
)

// rowView is an index row as its record spells it: names resolved,
// flags split out, links left behind.
type rowView struct {
	seq                        uint64
	scoredAt                   int64
	landing, start, fp, target string
	loc                        frameLoc
	phish                      bool
}

// liveRows lists the index's live rows in seq order, materializing it.
func liveRows(ix *memIndex) []rowView {
	ix.materialize()
	var out []rowView
	for r := range ix.each {
		out = append(out, rowView{r.seq, r.scoredAt, r.landing, r.start, r.fp, ix.names[r.target], r.loc(), r.n&rowPhish != 0})
	}
	return out
}

// The fuzzer's alphabet: few enough values that keys supersede, chains
// share rows and URL queries meet starting URLs that are someone's
// landing.
var fuzzTargets = []string{"", "a.example", "b.example", "c.example"}

func fuzzLanding(b byte) string { return "http://l" + strconv.Itoa(int(b%40)) + ".test/" }
func fuzzStart(b byte) string   { return "http://s" + strconv.Itoa(int(b%30)) + ".test/" }

// indexPair drives the slab index and the reference index it replaced
// through the same operations, as the store drives its index.
type indexPair struct {
	t    *testing.T
	ix   *memIndex
	ref  *refIndex
	mask uint64
	seq  uint64            // the last seq an append took: appends step by two, replays take the odd seqs between
	recs map[uint64]Record // every record inserted, by seq, for duplicate replays

	// A compaction between its copy (phase 1) and its flip (phase 3).
	flip    []compactItem
	refFlip []refPageKey
}

func (p *indexPair) record(seq uint64, b0, b1, b2 byte) Record {
	r := Record{Seq: seq, LandingURL: fuzzLanding(b0), Fingerprint: "fp" + strconv.Itoa(int(b2%3)),
		Target: fuzzTargets[b2/3%4], ScoredAt: time.Unix(int64(b1)*60, 0)}
	r.URL = r.LandingURL
	switch b1 / 3 % 4 {
	case 0:
		r.URL = fuzzStart(b1 / 12)
	case 1:
		r.URL = fuzzLanding(b1 / 12) // a start that is a landing, maybe its own
	}
	r.Outcome.FinalPhish = b0&0x80 != 0
	return r
}

// insert applies one replayed or appended record to both indexes at loc.
func (p *indexPair) insert(r Record, loc frameLoc) {
	p.ix.insert(&r, loc)
	e := refMetaOf(&r)
	e.seg, e.off, e.n = loc.seg, loc.off, loc.n
	p.ref.insert(e)
	p.recs[r.Seq] = r
}

func locOf(seq uint64) frameLoc {
	return frameLoc{seg: 1 + seq/16, off: int64(seq) * 64, n: 40 + uint32(seq%16)}
}

func (p *indexPair) append(b0, b1, b2 byte) {
	p.seq += 2
	p.insert(p.record(p.seq, b0, b1, b2), locOf(p.seq))
}

// replay inserts a record below the newest one, as recovery does when
// a compaction output sorts after the segments it was copied from; a
// seq already taken replays that record again, from another frame.
func (p *indexPair) replay(b0, b1, b2 byte) {
	if p.seq < 2 {
		return
	}
	seq := uint64(b0)<<8 | uint64(b1)
	seq = seq%p.seq | 1
	if r, ok := p.recs[seq]; ok {
		p.insert(r, frameLoc{seg: 9000 + seq, off: 8, n: 99})
		return
	}
	p.insert(p.record(seq, b0, b1, b2), locOf(seq))
}

// reopen round-trips the index through a snapshot, as Close then Open
// does; the reference takes the live rows through bulkLoad.
func (p *indexPair) reopen(materialize bool) {
	p.ix.inOrder()
	ix, _, err := decodeSnapshot(encodeSnapshot(p.ix, activeState{}))
	if err != nil {
		p.t.Fatalf("snapshot of the index does not decode: %v", err)
	}
	ix.mask = p.mask
	p.ix = ix
	// Exactly as many as decodeSnapshot allocates: materialize's lists
	// alias the array, and the first append must copy bySeq out of it.
	rows := make([]*refEntry, 0, p.ref.live())
	for _, e := range p.ref.bySeq {
		if !e.dead {
			c := *e
			rows = append(rows, &c)
		}
	}
	nextSeq := p.ref.nextSeq
	p.ref = newRefIndex()
	p.ref.bulkLoad(rows)
	if nextSeq > p.ref.nextSeq {
		p.ref.nextSeq = nextSeq
	}
	p.flip, p.refFlip = nil, nil
	if materialize {
		p.ix.materialize()
		p.ref.materialize()
	}
}

// compact runs compaction's phase 1 (pick the live rows of a segment)
// or, when one is pending, its phase 3 (point them at their copies).
func (p *indexPair) compact(b byte) {
	if p.flip != nil {
		for _, it := range p.flip {
			p.ix.move(it.seq, it.newLoc)
		}
		p.ref.materialize()
		for i, it := range p.flip {
			if e := p.ref.byKey[p.refFlip[i]]; e != nil && e.seq == it.seq {
				e.seg, e.off, e.n = it.newLoc.seg, it.newLoc.off, it.newLoc.n
			}
		}
		p.flip, p.refFlip = nil, nil
		return
	}
	if p.seq == 0 {
		return
	}
	victim := locOf(uint64(b) * p.seq / 255).seg
	p.ix.inOrder()
	for r := range p.ix.each {
		if r.seg == victim {
			p.flip = append(p.flip, compactItem{seq: r.seq, loc: r.loc(),
				newLoc: frameLoc{seg: 5000 + victim, off: int64(len(p.flip)) * 64, n: r.n & rowLen}})
		}
	}
	for _, e := range p.ref.bySeq {
		if !e.dead && e.seg == victim {
			p.refFlip = append(p.refFlip, e.key())
		}
	}
	if len(p.refFlip) != len(p.flip) {
		p.t.Fatalf("segment %d holds %d live rows, reference %d", victim, len(p.flip), len(p.refFlip))
	}
	if p.flip == nil {
		p.flip = []compactItem{} // an empty compaction still flips
	}
}

func (p *indexPair) query(b0, b1, b2 byte) (q Query, cursor uint64, hasCursor bool) {
	switch b0 % 8 {
	case 1:
		q.Target = fuzzTargets[b1%4]
	case 2:
		q.URL = fuzzLanding(b1)
	case 3:
		q.URL = fuzzStart(b1)
	case 4:
		q.Since = time.Unix(int64(b1)*30, 0)
	case 5:
		q.Until = time.Unix(int64(b1)*60, 0)
	case 6:
		q.Since, q.Until = time.Unix(int64(b1)*30, 0), time.Unix(int64(b1)*30+int64(b2)*60, 0)
	case 7:
		q.Target = "unknown.example" // a name no record carries
	}
	q.PhishOnly = b0&0x80 != 0
	if b0&0x40 != 0 && q.Until.IsZero() {
		q.Until = time.Unix(int64(b2)*120, 0) // a filter the walk cannot narrow by
	}
	q.Limit = int(b2 % 5)
	if b2&0x80 != 0 {
		cursor, hasCursor = uint64(b1)*(p.seq/255+1), true
	}
	return q, cursor, hasCursor
}

func (p *indexPair) checkScan(q Query, cursor uint64, hasCursor bool) (last uint64, more bool) {
	p.t.Helper()
	got, last, more := p.ix.scan(nil, q, cursor, hasCursor)
	want, wantLast, wantMore := p.ref.scan(nil, q, cursor, hasCursor)
	if !slices.Equal(got, want) || last != wantLast || more != wantMore {
		p.t.Fatalf("scan %+v below %d (%v):\n got %v last %d more %v\nwant %v last %d more %v",
			q, cursor, hasCursor, got, last, more, want, wantLast, wantMore)
	}
	return last, more
}

func (p *indexPair) checkGet(url string) {
	p.t.Helper()
	got, ok := p.ix.get(url)
	if e := p.ref.get(url); ok != (e != nil) || ok && got != (frameLoc{e.seg, e.off, e.n}) {

		p.t.Fatalf("get %s = %v, %v; reference %+v", url, got, ok, e)
	}
}

func (p *indexPair) checkCounts() {
	p.t.Helper()
	if p.ix.live() != p.ref.live() || p.ix.nextSeq != p.ref.nextSeq {
		p.t.Fatalf("live %d, nextSeq %d; reference %d, %d", p.ix.live(), p.ix.nextSeq, p.ref.live(), p.ref.nextSeq)
	}
}

// checkAll compares every lookup and every single-filter scan, paged
// from the newest row to the oldest two at a time, and whole.
func (p *indexPair) checkAll() {
	p.t.Helper()
	p.checkCounts()
	for b := byte(0); b < 40; b++ {
		p.checkGet(fuzzLanding(b))
		p.checkGet(fuzzStart(b))
	}
	var queries []Query
	for b := byte(0); b < 8; b++ {
		q, _, _ := p.query(b, b, 0)
		queries = append(queries, q)
		q.PhishOnly = true
		queries = append(queries, q)
	}
	for _, q := range queries {
		for _, limit := range []int{2, 0} {
			q.Limit = limit
			var cursor uint64
			var hasCursor bool
			for {
				last, more := p.checkScan(q, cursor, hasCursor)
				if !more {
					break
				}
				cursor, hasCursor = last, true
			}
		}
	}
}

// FuzzIndexMatchesReference holds the slab index to the pointer index
// it replaced (index_reference_test.go) over fuzzer-written operation
// streams: appends that supersede, out-of-order and duplicate replays,
// snapshot reopens (the lazy index) with and without an immediate
// materialize, compaction flips with operations between copy and flip,
// and bursts of supersedes that cross maybeShrink's rebuild. The first
// byte narrows the supersede hash, down to one value, so identities
// collide and only the string comparison tells them apart. Every get,
// scan (each filter, cursor and limit) and live count must agree.
func FuzzIndexMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 42))
		ops := make([]byte, 1+4*400)
		for i := range ops {
			ops[i] = byte(rng.UintN(256))
		}
		// Enough bursts to cross the rebuild threshold.
		for i := 1; i < len(ops); i += 4 * 40 {
			ops[i], ops[i+1] = 5, 255
		}
		ops[0] = byte(seed)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := &indexPair{t: t, ix: newMemIndex(), ref: newRefIndex(), recs: map[uint64]Record{},
			mask: []uint64{0, 1, 7, ^uint64(0)}[data[0]%4]}
		p.ix.mask = p.mask
		// Bounded work per input: at most 600 operations, and bursts only
		// while the log is short.
		for i := 1; i+3 < min(len(data), 1+4*600); i += 4 {
			op, b0, b1, b2 := data[i], data[i+1], data[i+2], data[i+3]
			switch op % 9 {
			case 0, 1, 2:
				p.append(b0, b1, b2)
			case 3:
				p.replay(b0, b1, b2)
			case 4:
				if r, ok := p.recs[2*(uint64(b0)<<8|uint64(b1))%(p.seq+2)]; ok {
					p.insert(r, frameLoc{seg: 7000 + r.Seq, off: 16, n: 77})
				}
			case 5:
				// A burst of supersedes over five landings' three fps.
				for j := 0; j < 16+2*int(b0) && p.seq < 1<<15; j++ {
					p.append(b1+byte(j%5), b2, byte(j))
				}
			case 6:
				p.reopen(b0&1 != 0)
			case 7:
				p.compact(b0)
			case 8:
				p.checkScan(p.query(b0, b1, b2))
			}
			p.checkCounts()
		}
		p.checkAll()
	})
}

// TestRowChunkFillsWholePages pins the row size rowChunk is derived
// from: a field added to or dropped from row fails here until the count
// and its comment are worked out again.
func TestRowChunkFillsWholePages(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("rowChunk's arithmetic is for 64-bit platforms")
	}
	const page = 8 << 10 // the runtime's page
	if size := unsafe.Sizeof(row{}); size != 104 || rowChunk*size%page != 0 {
		t.Fatalf("%d rows of %d B are %.2f runtime pages; rowChunk assumes 104 B rows and whole pages",
			rowChunk, size, float64(rowChunk*size)/page)
	}
}

// chainLen counts the rows, dead or live, a chain holds from row i down.
func chainLen(ix *memIndex, i int32, link int) int {
	n := 0
	for ; i != noRow; i = ix.at(i).next[link] {
		n++
	}
	return n
}

// TestSupersededRowsLeaveTheChains re-scores two URLs ten thousand times
// each, under the rebuild threshold, and holds what a read walks to the
// live rows. One URL is re-scored as the same page: its row heads the
// chain, so the new row links past it. The other alternates two pages,
// through a lure, with a target: each superseded row sits below a live
// one until a walk cuts it out. After one read every chain
// holds its live rows only, so no later Get or Scan walks a dead one.
func TestSupersededRowsLeaveTheChains(t *testing.T) {
	const others, rescores = 25_000, 10_000
	ix := newMemIndex()
	var seq uint64
	put := func(landing, start, fp, target string) {
		seq++
		ix.insert(&Record{Seq: seq, URL: start, LandingURL: landing, Fingerprint: fp, Target: target}, locOf(seq))
	}
	for i := 0; i < others; i++ {
		l := "http://other" + strconv.Itoa(i) + ".test/"
		put(l, l, "fp", "")
	}
	const same, alt, lure = "http://same.test/", "http://alt.test/", "http://lure.test/"
	for i := 0; i < rescores; i++ {
		put(same, same, "fp", "")
		put(alt, lure, "fp"+strconv.Itoa(i%2), "brand.example")
	}
	if ix.rows != others+2*rescores || ix.holes != 2*rescores-3 {
		t.Fatalf("rows %d, holes %d: a rebuild ran and dropped the dead rows under test", ix.rows, ix.holes)
	}
	if n := chainLen(ix, ix.byURL[same]-1, linkURL); n != 1 {
		t.Errorf("one page re-scored %d times leaves %d rows in its URL chain, want 1", rescores, n)
	}
	if n := chainLen(ix, ix.byURL[alt]-1, linkURL); n < rescores {
		t.Fatalf("alternating pages leave %d rows in the URL chain before a read, want the dead ones too", n)
	}

	for _, url := range []string{same, alt, lure} {
		want := seq
		if url == same {
			want--
		}
		l, ok := ix.get(url)
		if !ok || l != locOf(want) {
			t.Errorf("get(%s) = %v, %v; want seq %d's frame", url, l, ok, want)
		}
	}
	for _, q := range []Query{{URL: alt}, {URL: lure}, {Target: "brand.example"}} {
		if locs, _, more := ix.scan(nil, q, 0, false); more || !slices.Equal(locs, []frameLoc{locOf(seq), locOf(seq - 2)}) {
			t.Errorf("scan %+v = %v, more %v; want the two live rows, newest first", q, locs, more)
		}
	}
	checkChains := func(when string, want int) {
		t.Helper()
		for _, c := range []struct {
			name string
			head int32
			link int
		}{
			{"lure", ix.byStart[lure], linkStart},
			{"target", ix.byTarget[ix.ids["brand.example"]], linkTarget},
		} {
			if n := chainLen(ix, c.head-1, c.link); n != want {
				t.Errorf("%s, the %s chain holds %d rows, want %d", when, c.name, n, want)
			}
		}
	}
	checkChains("after a read", 2)
	if n := chainLen(ix, ix.byURL[alt]-1, linkURL); n != 2 {
		t.Errorf("after a read, the URL chain holds %d rows, want the 2 live ones", n)
	}

	// Re-scored with no lure or target, both pages leave dead rows at
	// the head of those chains; a read cuts them off too.
	put(alt, alt, "fp0", "")
	put(alt, alt, "fp1", "")
	if l, ok := ix.get(lure); ok {
		t.Errorf("get(%s) = %v after both its pages moved off it", lure, l)
	}
	if locs, _, _ := ix.scan(nil, Query{Target: "brand.example"}, 0, false); len(locs) != 0 {
		t.Errorf("scan by target = %v, want no rows", locs)
	}
	checkChains("after the pages moved off and a read", 0)
}

// naiveScan answers q over a store's live records, newest first, by
// filtering the list.
func naiveScan(live []Record, q Query, cursor uint64, hasCursor bool) (page []Record, more bool) {
	for _, r := range live {
		switch {
		case hasCursor && r.Seq >= cursor,
			q.Target != "" && r.Target != q.Target,
			q.URL != "" && r.LandingURL != q.URL && r.URL != q.URL,
			!q.Since.IsZero() && r.ScoredAt.Before(q.Since),
			!q.Until.IsZero() && !r.ScoredAt.Before(q.Until),
			q.PhishOnly && !r.Outcome.FinalPhish:
			continue
		}
		if q.Limit > 0 && len(page) == q.Limit {
			return page, true
		}
		page = append(page, r)
	}
	return page, false
}

// checkStore holds every Get and a paged walk of every query to the
// live record list (newest first).
func checkStore(t *testing.T, b Backend, live []Record, queries []Query) {
	t.Helper()
	if b.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(live))
	}
	for _, r := range live {
		for _, url := range []string{r.URL, r.LandingURL} {
			want, _ := naiveScan(live, Query{URL: url, Limit: 1}, 0, false)
			got, ok, err := b.Get(ctxb(), url)
			if err != nil || !ok || !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("Get(%s) = %+v, %v, %v; want %+v", url, got, ok, err, want[0])
			}
		}
	}
	for _, q := range queries {
		var cursor uint64
		var hasCursor bool
		for {
			want, more := naiveScan(live, q, cursor, hasCursor)
			page, err := b.Scan(ctxb(), q)
			if err != nil {
				t.Fatalf("Scan %+v: %v", q, err)
			}
			if got := decodePage(t, page); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) || (page.NextCursor != "") != more {
				t.Fatalf("Scan %+v = %d records (next %q), want %d (more %v)", q, len(got), page.NextCursor, len(want), more)
			}
			if !more {
				break
			}
			q.Cursor = page.NextCursor
			cursor, hasCursor = want[len(want)-1].Seq, true
		}
	}
}

// TestStoreMatchesLiveRecordList runs seeded streams of appends (about
// half of them superseding), compactions, and closes and reopens with
// and without snapshot.bin against a plain list of the live records,
// checking every Get and a paged walk of each filter after every reopen
// and at the end.
func TestStoreMatchesLiveRecordList(t *testing.T) {
	const ops = 2000
	t0 := time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)
	queries := []Query{{Limit: 7}, {Target: "a.example", Limit: 5}, {Target: "b.example", PhishOnly: true, Limit: 9},
		{Until: t0.Add(2 * time.Hour), Limit: 4}, {PhishOnly: true, Limit: 11}, {URL: "http://l3.test/", Limit: 2},
		{URL: "http://s4.test/", Limit: 2}, {Since: t0.Add(time.Hour), Until: t0.Add(3 * time.Hour), Limit: 6}}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 7))
			cfg := Config{Path: filepath.Join(t.TempDir(), "verdicts"), SegmentBytes: 16 << 10, CompactEvery: 500}
			b, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { b.Close() }()
			byKey := map[refPageKey]Record{}
			var seq uint64
			live := func() []Record {
				recs := make([]Record, 0, len(byKey))
				for _, r := range byKey {
					recs = append(recs, r)
				}
				sort.Slice(recs, func(i, j int) bool { return recs[i].Seq > recs[j].Seq })
				return recs
			}
			for op := 0; op < ops; op++ {
				switch x := rng.IntN(1000); {
				case x < 10:
					if err := b.Compact(ctxb()); err != nil {
						t.Fatal(err)
					}
				case x < 15:
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					if rng.IntN(2) == 0 {
						if err := os.Remove(filepath.Join(cfg.Path, snapshotFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
							t.Fatal(err)
						}
					}
					if b, err = Open(cfg); err != nil {
						t.Fatal(err)
					}
					checkStore(t, b, live(), queries)
				default:
					seq++
					r := Record{URL: fuzzLanding(byte(rng.IntN(40))), Fingerprint: fmt.Sprintf("%032x", rng.IntN(3)),
						Target: fuzzTargets[rng.IntN(4)], Outcome: core.Outcome{Score: 0.25, FinalPhish: rng.IntN(2) == 0},
						ScoredAt: t0.Add(time.Duration(rng.IntN(300)) * time.Minute)}
					r.LandingURL = r.URL
					if rng.IntN(4) == 0 {
						r.URL = fuzzStart(byte(rng.IntN(30)))
					}
					if err := b.Append(ctxb(), r); err != nil {
						t.Fatal(err)
					}
					r.Seq = seq
					byKey[refPageKey{r.LandingURL, r.Fingerprint}] = r
				}
			}
			checkStore(t, b, live(), queries)
		})
	}
}

// TestCompatFixtureReopens reopens a store the pointer index wrote
// (testdata/compat/store: two sealed segments with superseded records in
// them, an active segment and a KPSNAP2 snapshot.bin), with its snapshot
// and without it, and holds every Get and Scan to the live records that
// engine listed at the time (testdata/compat/records.json, newest
// first; the model_version and source members it lists decode to
// nothing). The old snapshot is refused, so both reopens replay every
// segment. Close then writes the current format, and a second reopen
// from it replays nothing and re-encodes to the same bytes. The fixture
// is never regenerated: it is the format as it was.
func TestCompatFixtureReopens(t *testing.T) {
	var want []Record
	raw, err := os.ReadFile(filepath.Join("testdata", "compat", "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	queries := []Query{{}, {Limit: 4}, {PhishOnly: true, Limit: 3}, {Target: "unknown.example"},
		{Since: want[len(want)-1].ScoredAt.Add(5 * time.Minute), Until: want[0].ScoredAt, Limit: 2}}
	seen := map[string]bool{}
	for _, r := range want {
		for _, q := range []Query{{Target: r.Target, Limit: 2}, {URL: r.URL}, {URL: r.LandingURL, Limit: 1}} {
			if k := fmt.Sprint(q); !seen[k] {
				seen[k] = true
				queries = append(queries, q)
			}
		}
	}
	for _, withSnapshot := range []bool{true, false} {
		t.Run(fmt.Sprint("snapshot=", withSnapshot), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "compat", "store"))); err != nil {
				t.Fatal(err)
			}
			if !withSnapshot {
				if err := os.Remove(filepath.Join(dir, snapshotFile)); err != nil {
					t.Fatal(err)
				}
			}
			cfg := Config{Path: dir, CompactEvery: -1}
			s := segOpen(t, cfg)
			if st := s.Stats(); st.TailReplayed == 0 || st.Segments != 3 {
				t.Fatalf("reopen stats %+v: want 3 segments, every one replayed", st)
			}
			checkStore(t, s, want, queries)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
			if err != nil || !bytes.HasPrefix(snap, []byte(snapshotMagic)) {
				t.Fatalf("Close left no current-format snapshot (err %v, %.8q)", err, snap)
			}
			s = segOpen(t, cfg)
			if st := s.Stats(); st.TailReplayed != 0 || st.Segments != 3 {
				t.Fatalf("second reopen stats %+v: want 3 segments and nothing replayed", st)
			}
			s.mu.Lock()
			data, _ := s.encodeSnapshotLocked()
			s.mu.Unlock()
			if !bytes.Equal(data, snap) {
				t.Fatalf("re-encoded snapshot differs from the one Close wrote (%d vs %d bytes)", len(data), len(snap))
			}
			checkStore(t, s, want, queries)
		})
	}
}
