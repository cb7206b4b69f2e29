package target

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"knowphish/internal/racecheck"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

// wordyPage is the i-th variant of base with words more terms in its
// text, each letters long, that no other variant and no other word of
// the page shares: its analysis and every term string cut from it are
// its own.
func wordyPage(base *webpage.Snapshot, i, words, letters int) *webpage.Snapshot {
	var b strings.Builder
	b.WriteString(base.Text)
	for j := 0; j < words; j++ {
		b.WriteByte(' ')
		for _, n := range []int{i, j} {
			for k := 0; k < 4; k++ {
				b.WriteByte(byte('a' + n%26))
				n /= 26
			}
		}
		for k := 8; k < letters; k++ {
			b.WriteByte('x')
		}
	}
	cp := *base
	cp.Text = b.String()
	return &cp
}

// rankedPhish returns a corpus page Identify ranks candidates for at
// step 3: the path that uses every part of the scratch.
func rankedPhish(t *testing.T, id *Identifier) *webpage.Snapshot {
	t.Helper()
	for _, ex := range corpus(t).PhishBrand.Examples {
		if res := id.Identify(webpage.Analyze(ex.Snapshot)); res.StepsUsed == 3 && len(res.Candidates) > 0 {
			return ex.Snapshot
		}
	}
	t.Fatal("no phishing page reached candidate ranking")
	return nil
}

// pooledScratches takes n scratches out of the pool: the ones the
// preceding calls on this goroutine put back, then fresh ones.
func pooledScratches(n int) []*identifyScratch {
	out := make([]*identifyScratch, n)
	for i := range out {
		out[i] = scratchPool.Get().(*identifyScratch)
	}
	return out
}

// holdsNoString fails if any slot of a pooled scratch, used or spare,
// still references a string, and returns the bytes of the scratch's own
// arrays.
func holdsNoString(t *testing.T, s *identifyScratch) (footprint int64) {
	t.Helper()
	return allZero(t, "terms", s.terms) + allZero(t, "query", s.query) + allZero(t, "results", s.results) +
		allZero(t, "seen", s.seen) + allZero(t, "cands", s.cands) +
		int64(cap(s.stats))*int64(unsafe.Sizeof(termStat{})) + int64(cap(s.prominent)+cap(s.boosted))*4
}

// allZero fails unless every slot of s up to its capacity is zero, and
// returns the bytes of its array.
func allZero[T comparable](t *testing.T, name string, s []T) int64 {
	t.Helper()
	var zero T
	for i, v := range s[:cap(s)] {
		if v != zero {
			t.Fatalf("pooled scratch: %s[%d] = %+v (len %d, cap %d), want zero", name, i, v, len(s), cap(s))
		}
	}
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdentifyScratchPinsNoPage: terms are substrings of client-chosen
// page bytes, so a scratch waiting in the pool must reference none of
// them. After 200 distinct 64 KB pages (2 000 terms of 32 letters: a
// table the pool keeps) the scratch that served them is taken out of
// the pool and held over two collections — the pool alone would be
// emptied by them. Every string slot of it, used or spare, reads zero,
// and beyond the scratch's own arrays the reachable heap is back where
// it started, when the terms of one pinned page are 64 KB.
func TestIdentifyScratchPinsNoPage(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap retention is not meaningful under -race, and its sync.Pool drops at random")
	}
	const pages, words, letters, margin = 200, 2000, 32, 32 << 10
	id := New(corpus(t).Engine)
	base := rankedPhish(t, id)
	before := heapAlloc()
	for i := 0; i < pages; i++ {
		if res := id.Identify(webpage.Analyze(wordyPage(base, i, words, letters))); len(res.Candidates) == 0 {
			t.Fatalf("page %d: no candidates ranked", i)
		}
	}
	held := pooledScratches(4)
	after := heapAlloc()
	var footprint int64
	used := 0
	for _, s := range held {
		footprint += holdsNoString(t, s)
		if cap(s.terms) >= words && cap(s.results) > 0 && cap(s.cands) > 0 {
			used++
		}
	}
	if used == 0 {
		t.Fatal("the scratch that served the pages did not come back from the pool: nothing was inspected")
	}
	grown := int64(after) - int64(before) - footprint
	t.Logf("%d pages identified and dropped: %d scratches came back used, %d bytes of arrays; beyond them the reachable heap grew %d bytes (margin %d)", pages, used, footprint, grown, margin)
	if grown > margin {
		t.Errorf("reachable heap grew %d bytes beyond the pooled scratches' own %d, margin %d", grown, footprint, margin)
	}
	runtime.KeepAlive(held)
}

// TestIdentifyHostilePage: a page with 50 000 distinct terms is
// identified exactly as the reference identifies it, and the table it
// grew is not kept.
func TestIdentifyHostilePage(t *testing.T) {
	id := New(corpus(t).Engine)
	a := webpage.Analyze(wordyPage(rankedPhish(t, id), 0, 50000, 8))
	if n := a.Dist(webpage.DistText).Len(); n < 50000 {
		t.Fatalf("the page has %d distinct text terms, want at least 50000", n)
	}
	got, want := id.Identify(a), referenceIdentify(id, a)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Identify differs from the reference:\n got %+v\nwant %+v", got, want)
	}
	for _, s := range pooledScratches(4) {
		if cap(s.terms) > maxPooledTerms {
			t.Errorf("a pooled scratch holds a %d-term table, over the drop capacity %d", cap(s.terms), maxPooledTerms)
		}
	}
}

// TestIdentifyConcurrent runs one Identifier from 8 goroutines (under
// -race in CI), each over pages of its own and over pages all of them
// share, and holds every result to the serial one.
func TestIdentifyConcurrent(t *testing.T) {
	c := corpus(t)
	id := New(c.Engine)
	var analyses []*webpage.Analysis
	for _, ex := range append(slices.Clone(c.PhishBrand.Examples), c.LangTests[webgen.English].Examples[:60]...) {
		analyses = append(analyses, webpage.Analyze(ex.Snapshot))
	}
	const workers, shared = 8, 8
	if len(analyses) < shared+workers {
		t.Fatalf("only %d pages", len(analyses))
	}
	serial := make([]Result, len(analyses))
	for i, a := range analyses {
		serial[i] = id.Identify(a)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, a := range analyses {
					if i >= shared && i%workers != w {
						continue // beyond the shared pages, a worker takes every eighth
					}
					if got := id.Identify(a); !reflect.DeepEqual(got, serial[i]) {
						t.Errorf("worker %d, page %d: concurrent result differs from the serial one:\n got %+v\nwant %+v", w, i, got, serial[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
