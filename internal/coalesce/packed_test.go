package coalesce

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"knowphish/internal/core"
	"knowphish/internal/search"
	"knowphish/internal/target"
	"knowphish/internal/webpage"
)

// packEngineDomains is how many domains packEngine indexes.
const packEngineDomains = 40

// packEngine is a small index for the round-trip tests: packEngineDomains
// domains d00.example … d39.example with MLDs d00 … d39, and a second
// document for d00.example that spells its MLD "other" — what Domain
// does not return for it.
func packEngine() *search.Engine {
	e := search.NewEngine()
	for i := range packEngineDomains {
		rdn, mld := packDomain(i)
		e.Add(search.Doc{URL: "https://" + rdn + "/", RDN: rdn, MLD: mld, Terms: []string{mld}})
	}
	e.Add(search.Doc{URL: "https://d00.example/x", RDN: "d00.example", MLD: "other", Terms: []string{"other"}})
	return e
}

func packDomain(i int) (rdn, mld string) {
	mld = fmt.Sprintf("d%02d", i)
	return mld + ".example", mld
}

// sameResult reports whether a and b are equal field for field, nil-ness
// of every list included, with scores compared by their bits (so -0 is
// not 0, and a NaN equals itself).
func sameResult(a, b *target.Result) bool {
	if len(a.Candidates) != len(b.Candidates) {
		return false
	}
	ca, cb := scoreless(a.Candidates), scoreless(b.Candidates)
	for i := range a.Candidates {
		if math.Float64bits(a.Candidates[i].Score) != math.Float64bits(b.Candidates[i].Score) {
			return false
		}
	}
	x, y := *a, *b
	x.Candidates, y.Candidates = ca, cb
	return reflect.DeepEqual(x, y)
}

func scoreless(cs []target.Candidate) []target.Candidate {
	if cs == nil {
		return nil
	}
	out := make([]target.Candidate, len(cs))
	for i, c := range cs {
		c.Score = 0
		out[i] = c
	}
	return out
}

// checkRoundTrip packs res against eng and decodes it twice, into an
// empty buffer and into one a larger result left full of other strings,
// and fails unless each decode equals res, keeps each list at its exact
// size and takes every term from the packed string. It reports whether
// res packed.
func checkRoundTrip(t *testing.T, eng *search.Engine, res target.Result) bool {
	t.Helper()
	p, ok := packTarget(eng, res)
	if !ok {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(p)))
	for _, buf := range []*core.TargetBuffer{{}, scribbledBuffer(40, 60)} {
		got := decodeTarget(eng, p, buf)
		if !sameResult(&got, &res) {
			t.Fatalf("pack → decode differs from the identifier's result:\n got %#v\nwant %#v", got, res)
		}
		for _, list := range termLists(&got) {
			if len(*list) != cap(*list) {
				t.Fatalf("list %q has capacity %d: an append would write into its neighbour", *list, cap(*list))
			}
			for _, term := range *list {
				if at := uintptr(unsafe.Pointer(unsafe.StringData(term))); len(term) > 0 && (at < lo || at >= lo+uintptr(len(p))) {
					t.Fatalf("term %q is not a substring of the packed string: the decode copied it", term)
				}
			}
		}
	}
	return true
}

// scribbledBuffer is a lent buffer with room for cands candidates and
// terms terms, every slot holding a string no result spells.
func scribbledBuffer(cands, terms int) *core.TargetBuffer {
	buf := &core.TargetBuffer{Candidates: make([]target.Candidate, cands), Terms: make([]string, terms)}
	for i := range buf.Candidates {
		buf.Candidates[i] = target.Candidate{RDN: "scribble.example", MLD: "scribble", Count: -1, Score: -1}
	}
	for i := range buf.Terms {
		buf.Terms[i] = "scribble"
	}
	return buf
}

// positives returns n fixture pages the detector flags, whose verdicts
// run target identification.
func positives(t testing.TB, n int) []*webpage.Snapshot {
	t.Helper()
	corp, pipe := fixtures(t)
	var out []*webpage.Snapshot
	for _, ex := range corp.PhishTest.Examples {
		v, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(ex.Snapshot))
		if err != nil {
			t.Fatal(err)
		}
		if v.TargetRun {
			if out = append(out, ex.Snapshot); len(out) == n {
				return out
			}
		}
	}
	t.Fatalf("the fixture has %d detector positives, want %d", len(out), n)
	return nil
}

// TestTargetEntryRoundTrip: pack then decode is the identifier's own
// result, for real identifier results and for the shapes the identifier rarely or never
// makes — nil and empty lists, empty terms, terms past a one-byte
// length, 30 candidates, a score of -0 — and a result whose candidates
// do not read back from the engine as they are is not packed.
func TestTargetEntryRoundTrip(t *testing.T) {
	eng := packEngine()
	cand := func(i, count int, score float64) target.Candidate {
		rdn, mld := packDomain(i)
		return target.Candidate{RDN: rdn, MLD: mld, Count: count, Score: score}
	}
	var thirty []target.Candidate
	for i := range 30 {
		thirty = append(thirty, cand(i+5, 30-i, float64(i)/7))
	}
	long := strings.Repeat("x", 300)
	packs := map[string]target.Result{
		"zero": {},
		"empty lists": {
			Candidates: []target.Candidate{}, OCRProminent: []string{},
			Keyterms: target.Keyterms{Boosted: []string{}, Prominent: []string{}},
		},
		"legitimate at step 2": {
			Verdict: target.VerdictLegitimate, StepsUsed: 2,
			Keyterms: target.Keyterms{Prominent: []string{"paypal", "login"}},
		},
		"phish, 30 candidates": {
			Verdict: target.VerdictPhish, StepsUsed: 3, Candidates: thirty,
			Keyterms: target.Keyterms{Boosted: []string{"d05"}, Prominent: []string{"d05", "secure"}},
		},
		"odd terms, -0 score, OCR": {
			Verdict: target.VerdictPhish, StepsUsed: 4, UsedOCR: true,
			Candidates:   []target.Candidate{cand(0, 1, math.Copysign(0, -1)), cand(39, -3, math.Inf(1))},
			Keyterms:     target.Keyterms{Boosted: []string{"", long}, Prominent: []string{long[:128], "\x00\xff"}},
			OCRProminent: []string{"", "", long[:127]},
		},
		"out-of-range verdict and step": {Verdict: -7, StepsUsed: 1 << 40},
	}
	for name, res := range packs {
		if !checkRoundTrip(t, eng, res) {
			t.Errorf("%s: did not pack", name)
		}
	}
	other := cand(0, 1, 1)
	other.MLD = "other" // d00.example's second document: Domain spells it d00
	c := New(Config{})
	for name, bad := range map[string]target.Candidate{
		"unindexed RDN":   {RDN: "absent.example", MLD: "absent"},
		"MLD of a second": other,
	} {
		res := target.Result{Verdict: target.VerdictPhish, Candidates: []target.Candidate{cand(1, 1, 1), bad}}
		if checkRoundTrip(t, eng, res) {
			t.Errorf("%s: packed a candidate that does not read back", name)
		}
		if e, ok := c.packEntry(eng, res); ok || e != "" {
			t.Errorf("%s: a result that does not pack made an entry: %q", name, e)
		}
	}

	corp, pipe := fixtures(t)
	packed := 0
	for _, ex := range corp.PhishTest.Examples {
		a := webpage.Analyze(ex.Snapshot)
		res := pipe.Identifier.Identify(a)
		if checkRoundTrip(t, pipe.Identifier.Engine, res) {
			packed++
		}
		a.Release()
	}
	if packed != len(corp.PhishTest.Examples) {
		t.Errorf("%d of %d identifier results packed, want all", packed, len(corp.PhishTest.Examples))
	}
}

// FuzzTargetEntryRoundTrip is TestTargetEntryRoundTrip on fuzzer-built
// results: up to 30 candidates, of the engine's domains or not, with any
// count and score bits; up to 15 terms per list of any bytes and up to
// 255 bytes long; each list nil or not.
func FuzzTargetEntryRoundTrip(f *testing.F) {
	f.Add([]byte{2, 3, 0x1f, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 0x3f, 7, 2, 5, 'l', 'o', 'g', 'i', 'n'})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 4, 0xff, 30, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 129})
	eng := packEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		res := target.Result{Verdict: target.Verdict(int8(next())), StepsUsed: int(next())}
		flags := next()
		res.UsedOCR = flags&1 != 0
		if flags&2 != 0 {
			res.Candidates = []target.Candidate{}
		}
		for range int(next()) % 31 {
			// Domains past the engine's are unindexed RDNs.
			rdn, mld := packDomain(int(next()) % (packEngineDomains + 8))
			if next()%16 == 0 {
				mld = "other"
			}
			var bits [8]byte
			for i := range bits {
				bits[i] = next()
			}
			res.Candidates = append(res.Candidates, target.Candidate{
				RDN: rdn, MLD: mld, Count: int(int16(uint16(next())<<8 | uint16(next()))),
				Score: math.Float64frombits(binary.LittleEndian.Uint64(bits[:])),
			})
		}
		for i, list := range termLists(&res) {
			if flags&(4<<i) != 0 {
				*list = []string{}
			}
			for range int(next()) % 16 {
				n := min(int(next()), len(data))
				*list = append(*list, string(data[:n]))
				data = data[n:]
			}
		}
		checkRoundTrip(t, eng, res)
	})
}

// TestPackedEntryReadsAsMissOnAnotherEngine: an entry names its
// candidates by domain id in the engine it was packed against, so a
// pipeline whose identifier searches another engine never decodes it —
// it reads as a miss and computes its own result, which is not
// memoized. The identifier ids were packed against reads its entry
// again, as it was.
func TestPackedEntryReadsAsMissOnAnotherEngine(t *testing.T) {
	corp, pipe := fixtures(t)
	ctx := context.Background()
	c := New(Config{})
	snap := positives(t, 1)[0]
	key := webpage.ContentKey(snap)
	first, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	packed, ok := c.target.Get(key)
	if !ok || packed == "" {
		t.Fatal("a detector positive left no target entry")
	}

	// The same documents, so the same result, in an engine of its own.
	other := search.NewEngine()
	for _, d := range corp.Engine.Docs() {
		other.Add(d)
	}
	elsewhere := &core.Pipeline{Detector: pipe.Detector, Identifier: target.New(other)}
	var prov core.MemoProvenance
	for range 2 {
		v, err := c.Do(ctx, elsewhere, core.NewScoreRequest(snap), CacheDefault, &prov)
		if err != nil {
			t.Fatal(err)
		}
		if prov.Score != core.ProvMemo || prov.Target != core.ProvComputed {
			t.Fatalf("read through another engine: provenance %+v, want the score from the memo and the target computed", prov)
		}
		if !reflect.DeepEqual(v.Target, first.Target) {
			t.Fatalf("another engine over the same documents identified differently:\n got %+v\nwant %+v", v.Target, first.Target)
		}
	}
	if e, ok := c.target.Get(key); !ok || e != packed {
		t.Fatalf("a result identified against another engine replaced the entry: %q, want %q", e, packed)
	}

	// The packing engine's pipeline reads its entry back.
	v, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, &prov)
	if err != nil || prov.Target != core.ProvMemo || !reflect.DeepEqual(v.Target, first.Target) {
		t.Fatalf("the packing engine's own read: err=%v provenance %+v target %+v", err, prov, v.Target)
	}
}

// TestUnpackedPositiveIsRecomputed: a detector positive whose result
// does not pack is not memoized, so every repeat of the page runs
// target identification again — provenance computed, no target entry —
// and answers exactly what the identifier answers. The engine here
// indexes every RDN first under a conflicting MLD, so no candidate
// reads back from it.
func TestUnpackedPositiveIsRecomputed(t *testing.T) {
	corp, pipe := fixtures(t)
	ctx := context.Background()
	conflict := search.NewEngine()
	seen := make(map[string]bool)
	for _, d := range corp.Engine.Docs() {
		if !seen[d.RDN] {
			seen[d.RDN] = true
			conflict.Add(search.Doc{URL: "https://" + d.RDN + "/first", RDN: d.RDN, MLD: "first-" + d.MLD, Terms: []string{"first-of-its-rdn"}})
		}
		conflict.Add(d)
	}
	conflicted := &core.Pipeline{Detector: pipe.Detector, Identifier: target.New(conflict)}

	var snap *webpage.Snapshot
	var want core.Verdict
	for _, s := range positives(t, 8) {
		v, err := conflicted.AnalyzeCtx(ctx, core.NewScoreRequest(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Target.Candidates) > 0 {
			snap, want = s, v
			break
		}
	}
	if snap == nil {
		t.Fatal("no detector positive has a candidate")
	}
	if _, ok := packTarget(conflict, want.Target); ok {
		t.Fatal("a candidate under a conflicting MLD packed")
	}

	c := New(Config{})
	buf := &core.TargetBuffer{}
	for round := range 3 {
		var prov core.MemoProvenance
		v, err := c.Do(ctx, conflicted, core.NewScoreRequest(snap).WithTargetBuffer(buf), CacheDefault, &prov)
		if err != nil {
			t.Fatal(err)
		}
		if prov.Target != core.ProvComputed || (round > 0 && prov.Score != core.ProvMemo) {
			t.Fatalf("round %d: provenance %+v, want the target computed (and the score memoized after round 0)", round, prov)
		}
		if !reflect.DeepEqual(v.Target, want.Target) || v.FinalPhish != want.FinalPhish {
			t.Fatalf("round %d: target %+v, want the identifier's %+v", round, v.Target, want.Target)
		}
		if c.target.Len() != 0 {
			t.Fatalf("round %d: an unpacked result left %d target entries", round, c.target.Len())
		}
	}
}

// TestLentBuffersRaceRewrites: goroutines hit the same packed entries
// together, each decoding into a buffer of its own, while refresh
// passes rewrite those entries and a churner's inserts evict them from
// their shards under the hitters. Every verdict equals the direct one.
// Run under -race.
func TestLentBuffersRaceRewrites(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	snaps := positives(t, 4)
	want := make([]core.Verdict, len(snaps))
	for i, snap := range snaps {
		v, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	c := New(Config{MemoEntries: 4 * memoShards}) // four slots a shard
	for _, snap := range snaps {
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
			t.Fatal(err)
		}
	}
	filler, _ := c.target.Get(webpage.ContentKey(snaps[0]))

	const hitters, sweeps = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, hitters+1)
	done := make(chan struct{})
	stopped := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	wg.Add(hitters + 1)
	go func() { // rewrites every entry
		defer wg.Done()
		for !stopped() {
			for _, snap := range snaps {
				if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheRefresh, nil); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for range hitters {
		go func() {
			defer wg.Done()
			buf := &core.TargetBuffer{}
			for pass := 0; pass < 4 || !stopped(); pass++ {
				for i, snap := range snaps {
					v, err := c.Do(ctx, pipe, core.NewScoreRequest(snap).WithTargetBuffer(buf), CacheDefault, nil)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(v.Target, want[i].Target) || v.FinalPhish != want[i].FinalPhish {
						errs <- fmt.Errorf("pass %d page %d: target %+v, want %+v", pass, i, v.Target, want[i].Target)
						return
					}
				}
			}
		}()
	}
	// Evictions: each sweep fills every shard with keys no hitter asks
	// for, pushing the entries out; the hitters' misses put them back.
	for n := range uint64(sweeps * 4 * memoShards) {
		c.target.Put(key(n+1), filler)
		if n%(4*memoShards) == 0 {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Snapshot().Target
	t.Logf("target table: %+v", st)
	if st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("the hitters never hit, or nothing was evicted: %+v", st)
	}
}
