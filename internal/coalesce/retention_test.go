package coalesce

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/racecheck"
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
// whatever the page was. Half the pages are detector positives, whose
// target results are the larger entries.
func TestHeapAllocRetainedPerPage(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap retention is not meaningful under -race")
	}
	_, pipe := fixtures(t)
	ctx := context.Background()
	const pages, pageBytes, budget = 2000, 8 << 10, 1 << 10
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
