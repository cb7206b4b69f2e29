package store

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/racecheck"
)

// Allocation contracts of the store's two hot calls, run by
// `make alloc-check` (their names contain "Alloc"): reading a page into
// storage the caller owns, and appending a record.

// perCall runs f runs times after a warm-up call and returns the mean
// allocations and bytes allocated per call, on one P as AllocsPerRun
// counts: a goroutine that moves to another P misses what its last call
// put back in a pool on the first.
func perCall(runs int, f func()) (allocs float64, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestScanPageAllocs: a warm 100-record page read through AppendScan
// into a page with room allocates nothing sized by the page — the
// frames and their payloads land in the caller's storage, and the
// index walk's locations in a pooled slice. What is left is the cursor
// string. Scan, the same read into a fresh page, pays for the page.
func TestScanPageAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := openStore(t, Config{SegmentBytes: 64 << 10, CompactEvery: -1})
	for i := 0; i < 500; i++ {
		r := rec("http://lure.test/"+strconv.Itoa(i), "http://land.test/"+strconv.Itoa(i), "fp", "novabank.com", true)
		r.ScoredAt = r.ScoredAt.Add(time.Duration(i) * time.Second)
		if err := b.Append(ctxb(), r); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Segments < 2 {
		t.Fatalf("fixture store has %d segment(s), want the page to cross a seal", st.Segments)
	}
	q := Query{Limit: 100, Cursor: encodeCursor(450)}
	var page ScanPage
	read := func() {
		var err error
		page, err = b.AppendScan(ctxb(), ScanPage{Payloads: page.Payloads[:0], Frames: page.Frames[:0]}, q)
		if err != nil || len(page.Payloads) != 100 {
			t.Fatalf("AppendScan = %d records (err %v), want 100", len(page.Payloads), err)
		}
	}
	allocs, perPage := perCall(200, read)
	fresh := func() {
		if p, err := b.Scan(ctxb(), q); err != nil || len(p.Payloads) != 100 {
			t.Fatalf("Scan = %d records (err %v), want 100", len(p.Payloads), err)
		}
	}
	_, perFresh := perCall(200, fresh)
	t.Logf("one 100-record page of %d frame bytes: AppendScan %.0f allocs, %d B; Scan %d B",
		len(page.Frames), allocs, perPage, perFresh)
	if allocs > 2 {
		t.Errorf("AppendScan = %.0f allocs per page, budget 2", allocs)
	}
	if perPage > 256 {
		t.Errorf("AppendScan allocated %d B per page of %d frame bytes, budget 256", perPage, len(page.Frames))
	}
	// The payloads are the page's, and they alias the caller's storage.
	want := decodePage(t, mustScan(t, b, q))
	got := decodePage(t, page)
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("record %d: seq %d, Scan has %d", i, got[i].Seq, want[i].Seq)
		}
	}
}

// TestAppendAllocs: one Append allocates the index row and nothing
// sized by the record. The document is encoded straight into the
// store's frame scratch, not into a fresh slice of its own, so records
// whose URLs are 4 KB each cost what short ones do.
func TestAppendAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 400
	long := strings.Repeat("x", 4<<10)
	recs := make([]Record, 2*runs+2)
	for i := range recs {
		n := strconv.Itoa(i)
		recs[i] = rec("http://lure.test/"+n+"/"+long, "http://land.test/"+n+"/"+long, "fp", "novabank.com", true)
	}
	b := openStore(t, Config{CompactEvery: -1})
	next := 0
	appendOne := func() {
		if err := b.Append(ctxb(), recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	allocs, perAppend := perCall(runs, appendOne)
	t.Logf("one append of a %d-byte record: %.1f allocs, %d B", 2*len(long), allocs, perAppend)
	if allocs > 5 {
		t.Errorf("Append = %.1f allocs, budget 5", allocs)
	}
	if perAppend > 1024 {
		t.Errorf("Append allocated %d B for a %d-byte record, budget 1024", perAppend, 2*len(long))
	}
}

func mustScan(t *testing.T, b Backend, q Query) ScanPage {
	t.Helper()
	page, err := b.Scan(ctxb(), q)
	if err != nil {
		t.Fatal(err)
	}
	return page
}

// feedRecords are n records shaped like the feed's: a distinct landing
// URL each, a quarter of them reached through a redirect (so they also
// carry a starting URL), a 32-hex fingerprint, and a target on the
// phishing third.
func feedRecords(n int) []Record {
	recs := make([]Record, n)
	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := range recs {
		land := "http://land" + strconv.Itoa(i) + ".test/login"
		r := Record{URL: land, LandingURL: land, RDN: "land" + strconv.Itoa(i) + ".test",
			Fingerprint: fmt.Sprintf("%016x%016x", uint64(i)*0x9e3779b97f4a7c15, uint64(i)),
			Outcome:     core.Outcome{Score: 0.2}, ScoredAt: t0.Add(time.Duration(i) * time.Second)}
		if i%4 == 0 {
			r.URL = "http://lure" + strconv.Itoa(i) + ".test/r"
		}
		if i%3 == 0 {
			r.Outcome = core.Outcome{Score: 0.9, DetectorPhish: true, FinalPhish: true}
			r.Target = []string{"novabank.com", "paypath.example", "mailbox.example"}[i%9/3]
		}
		recs[i] = r
	}
	return recs
}

// liveHeap is the bytes of reachable heap objects, after two
// collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapAllocRetainedPerRecord pins what a stored verdict costs in
// memory: the live heap a store holds per feed-shaped record, the
// records' own strings excluded (they are built, and kept, before the
// first reading). That is the index row and its share of the maps the
// lookups go through; the frame itself stays on disk. A one-landing
// shape — a cloaking URL serving ten thousand versions — must keep
// every version live and find them newest first.
func TestHeapAllocRetainedPerRecord(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap readings are not meaningful under -race")
	}
	for _, c := range []struct {
		records int
		budget  float64
	}{{1000, 280}, {100_000, 200}} {
		recs := feedRecords(c.records)
		b := openStore(t, Config{CompactEvery: -1})
		before := liveHeap()
		for i := range recs {
			if err := b.Append(ctxb(), recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		perRecord := float64(int64(liveHeap())-int64(before)) / float64(c.records)
		runtime.KeepAlive(recs)
		t.Logf("%d records: %.0f B live heap per record", c.records, perRecord)
		if perRecord > c.budget {
			t.Errorf("%d records hold %.0f B of live heap per record, budget %.0f", c.records, perRecord, c.budget)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}

	const versions = 10_000
	b := openStore(t, Config{CompactEvery: -1})
	const landing = "http://cloak.test/"
	for i := 0; i < versions; i++ {
		if err := b.Append(ctxb(), rec(landing, landing, fmt.Sprintf("%032x", i), "", true)); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != versions {
		t.Fatalf("Len = %d, want all %d versions live", b.Len(), versions)
	}
	if got, ok, err := b.Get(ctxb(), landing); err != nil || !ok || got.Seq != versions {
		t.Fatalf("Get = seq %d, %v, %v; want the newest, seq %d", got.Seq, ok, err, versions)
	}
	got := scanAll(t, b, Query{URL: landing}, 1000)
	if len(got) != versions {
		t.Fatalf("Scan(url) = %d records, want %d", len(got), versions)
	}
	for i, r := range got {
		if r.Seq != uint64(versions-i) {
			t.Fatalf("Scan(url) record %d is seq %d, want %d: not newest first", i, r.Seq, versions-i)
		}
	}
}
