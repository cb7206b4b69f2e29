package coalesce

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"knowphish/internal/core"
	"knowphish/internal/racecheck"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// distinctPage is the i-th variant of base: its own content key and
// about size bytes of text made of terms (letters only, so the term
// extractor keeps them) that no other variant shares — the page's
// snapshot, analysis and term arena are all its own and all page-sized.
func distinctPage(base *webpage.Snapshot, i, size int) *webpage.Snapshot {
	word := func(n int) string {
		var w [8]byte
		for k := range w {
			w[k] = byte('a' + n%26)
			n /= 26
		}
		return string(w[:])
	}
	var b strings.Builder
	b.WriteString(base.Text)
	for j := 0; b.Len() < size; j++ {
		b.WriteByte(' ')
		b.WriteString(word(i))
		b.WriteString(word(j))
	}
	cp := *base
	cp.Text = b.String()
	return &cp
}

// collect runs the two collections that free what sync.Pool victim
// caches and finalizers hold over one (benchmark's liveHeap does the
// same) and returns the reachable heap.
func collect() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapAllocMemoPinsNoPage pins that the memo keeps verdicts, not
// pages: once Do has returned and the caller lets go, the snapshot is
// collectable — while the entry it left still answers an equal page as
// a hit.
func TestHeapAllocMemoPinsNoPage(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap retention is not meaningful under -race")
	}
	_, pipe := fixtures(t)
	ctx := context.Background()
	c := New(Config{})
	for i, base := range mixedSnaps(t, 2) { // a detector positive and a negative
		var freed atomic.Bool
		func() {
			snap := distinctPage(base, i, 8<<10)
			runtime.SetFinalizer(snap, func(*webpage.Snapshot) { freed.Store(true) })
			if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
				t.Fatal(err)
			}
		}()
		for tries := 0; tries < 50 && !freed.Load(); tries++ {
			collect()
			time.Sleep(time.Millisecond) // finalizers run on their own goroutine
		}
		if !freed.Load() {
			t.Fatalf("page %d: the memo still holds the scored snapshot", i)
		}
		var prov core.MemoProvenance
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(distinctPage(base, i, 8<<10)), CacheDefault, &prov); err != nil || !prov.Hit() {
			t.Fatalf("page %d: equal page after collection: hit=%v err=%v (prov %+v)", i, prov.Hit(), err, prov)
		}
	}
}

// TestHeapAllocRetainedPerPage bounds what one scored page leaves
// behind: -memo-size counts entries, and an entry must stay small
// whatever the page was. About a third of the pages are detector
// positives, whose target entries are the larger ones: about 130 bytes
// per page in all (about 330 while target entries were kept expanded).
func TestHeapAllocRetainedPerPage(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap retention is not meaningful under -race")
	}
	_, pipe := fixtures(t)
	ctx := context.Background()
	const pages, pageBytes, budget = 2000, 8 << 10, 160
	bases := mixedSnaps(t, 8)
	c := New(Config{})
	before := collect()
	for i := 0; i < pages; i++ {
		snap := distinctPage(bases[i%len(bases)], i, pageBytes)
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
			t.Fatal(err)
		}
	}
	retained := int64(collect()) - int64(before)
	st := c.Snapshot()
	if st.Score.Entries != pages || st.Target.Entries == 0 {
		t.Fatalf("memo holds %d score / %d target entries after %d distinct pages", st.Score.Entries, st.Target.Entries, pages)
	}
	perPage := retained / pages
	t.Logf("%d pages of %d bytes (%d detector positives): %d bytes retained per page", pages, pageBytes, st.Target.Entries, perPage)
	if perPage > budget {
		t.Fatalf("%d bytes retained per scored page, budget %d", perPage, budget)
	}
	runtime.KeepAlive(c)
}

// TestHeapAllocRetainedPerScoreEntry bounds what a detector-negative
// page leaves behind — one score entry, no target entry — which is
// what most scored pages cost. The slab table keeps an entry's key,
// score and links in a 32-byte chunk slot, and nothing else: about 45
// bytes with the index cells and chunk headers. Keeping the fingerprint
// string and a version string in the slot retained about 120 bytes, and
// a map over a container/list, which boxed each entry in two more
// objects, about 190.
func TestHeapAllocRetainedPerScoreEntry(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap retention is not meaningful under -race")
	}
	c0, pipe := fixtures(t)
	ctx := context.Background()
	const pages, pageBytes, budget = 2000, 8 << 10, 56
	var bases []*webpage.Snapshot
	for _, ex := range c0.LegTrain.Examples[:8] {
		bases = append(bases, ex.Snapshot)
	}
	c := New(Config{})
	before := collect()
	for i := 0; i < pages; i++ {
		snap := distinctPage(bases[i%len(bases)], i, pageBytes)
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
			t.Fatal(err)
		}
	}
	retained := int64(collect()) - int64(before)
	st := c.Snapshot()
	if st.Score.Entries != pages || st.Target.Entries != 0 {
		t.Fatalf("memo holds %d score / %d target entries after %d distinct legitimate pages", st.Score.Entries, st.Target.Entries, pages)
	}
	perEntry := retained / pages
	t.Logf("%d detector-negative pages of %d bytes: %d bytes retained per score entry", pages, pageBytes, perEntry)
	if perEntry > budget {
		t.Fatalf("%d bytes retained per score entry, budget %d", perEntry, budget)
	}
	runtime.KeepAlive(c)
}

// TestScoreSlotHoldsNoPointer pins the score table's slot shape: 32
// bytes of key, score and links, with no pointer anywhere
// in it, so the collector never scans a score table and an entry costs
// no heap object. A string or pointer field added to scoreEntry fails
// here before it fails a retention budget.
func TestScoreSlotHoldsNoPointer(t *testing.T) {
	var slot memoSlot[scoreEntry]
	if size := unsafe.Sizeof(slot); size != 32 {
		t.Errorf("memoSlot[scoreEntry] is %d bytes, want 32", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: a score slot must hold no pointer", path, typ)
		}
	}
	walk("memoSlot[scoreEntry]", reflect.TypeOf(slot))
}

// TestDecodeTargetAllocs: a hit decodes its entry into the buffer the
// request lends. The decode equals the result, every term is a
// substring of the packed string (not of the page's arena, which the
// entry copied them out of) and the lists are kept apart. Into a buffer
// with room it allocates nothing; into an empty one, the candidate and
// term arrays, whatever the term count.
func TestDecodeTargetAllocs(t *testing.T) {
	eng := packEngine()
	arena := strings.Repeat("d07 login account verify secure ", 4)
	rdn, mld := packDomain(7)
	res := target.Result{
		Verdict: target.VerdictPhish, StepsUsed: 4, UsedOCR: true,
		Keyterms:     target.Keyterms{Boosted: []string{arena[0:3]}, Prominent: []string{arena[0:3], arena[4:9], arena[10:17]}},
		OCRProminent: []string{arena[18:24], arena[25:31]},
		Candidates:   []target.Candidate{{RDN: rdn, MLD: mld, Count: 3, Score: 1.5}},
	}
	packed, ok := packTarget(eng, res)
	if !ok {
		t.Fatal("the result did not pack")
	}
	within := func(term, s string) bool {
		at, lo := uintptr(unsafe.Pointer(unsafe.StringData(term))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return at >= lo && at < lo+uintptr(len(s))
	}
	var buf core.TargetBuffer
	got := decodeTarget(eng, packed, &buf)
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("decode differs:\n got %+v\nwant %+v", got, res)
	}
	for _, list := range [][]string{got.Keyterms.Boosted, got.Keyterms.Prominent, got.OCRProminent} {
		if len(list) != cap(list) {
			t.Errorf("list %q has capacity %d: an append would write into its neighbour", list, cap(list))
		}
		for _, term := range list {
			if within(term, arena) || !within(term, packed) {
				t.Errorf("term %q is not a substring of the packed entry", term)
			}
		}
	}
	if racecheck.Enabled {
		return // allocation counts are not meaningful under -race
	}
	if n := testing.AllocsPerRun(100, func() { decodeTarget(eng, packed, &buf) }); n != 0 {
		t.Errorf("a decode into a buffer with room allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { decodeTarget(eng, packed, &core.TargetBuffer{}) }); n > 2 {
		t.Errorf("a decode into an empty buffer allocates %.1f times for %d terms, want at most 2", n, 6)
	}
}

// TestHeapAllocRetainedPerTargetEntry bounds what a detector positive
// leaves behind once its entries have been read a few times: its score
// entry and its target entry, about 265 bytes. A target entry is packed
// for its whole life — one string of about 160 bytes that names
// candidates by domain id, in a 40-byte slot — and a hit decodes it
// into the request's storage. Expanded in place by their first hit, as
// entries were, the same positives retained about 810 bytes each once
// read.
func TestHeapAllocRetainedPerTargetEntry(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap retention is not meaningful under -race")
	}
	_, pipe := fixtures(t)
	ctx := context.Background()
	const pages, pageBytes, budget = 2000, 8 << 10, 320
	bases := positives(t, 8)
	var snaps []*webpage.Snapshot
	c := New(Config{})
	before := collect()
	for i, n := 0, 0; n < pages; i++ {
		// Extra text turns some variants negative: score only the others.
		snap := distinctPage(bases[i%len(bases)], i, pageBytes)
		if v, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(snap)); err != nil || !v.TargetRun {
			continue
		}
		snaps = append(snaps, snap)
		n++
	}
	// Written, then read: a lent buffer on one read and none on the rest.
	buf := &core.TargetBuffer{}
	for read := range 4 {
		for _, snap := range snaps {
			req := core.NewScoreRequest(snap)
			if read == 1 {
				req = req.WithTargetBuffer(buf)
			}
			var prov core.MemoProvenance
			if _, err := c.Do(ctx, pipe, req, CacheDefault, &prov); err != nil {
				t.Fatal(err)
			}
			if read > 0 && !prov.Hit() {
				t.Fatalf("read %d missed the memo: %+v", read, prov)
			}
		}
	}
	snaps = nil
	retained := int64(collect()) - int64(before)
	if st := c.Snapshot(); st.Score.Entries != pages || st.Target.Entries != pages {
		t.Fatalf("memo holds %d score / %d target entries after %d distinct positives", st.Score.Entries, st.Target.Entries, pages)
	}
	perPage := retained / pages
	t.Logf("%d detector positives of %d bytes: %d bytes retained per positive (score and target entry)", pages, pageBytes, perPage)
	if perPage > budget {
		t.Fatalf("%d bytes retained per detector positive, budget %d", perPage, budget)
	}
	runtime.KeepAlive(c)
}
