package coalesce

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
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

// checkRoundTrip packs res against eng and expands it, and fails unless
// the expansion equals ownedResult(res), keeps each list at its exact
// size and shares no byte with the packed string. It reports whether
// res packed.
func checkRoundTrip(t *testing.T, eng *search.Engine, res target.Result) bool {
	t.Helper()
	want := ownedResult(res)
	p, ok := packTarget(eng, res)
	if !ok {
		return false
	}
	got := expandTarget(eng, p)
	if !sameResult(got, want) {
		t.Fatalf("pack → expand differs from ownedResult:\n got %#v\nwant %#v", *got, *want)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(p)))
	for _, list := range termLists(got) {
		if len(*list) != cap(*list) {
			t.Fatalf("list %q has capacity %d: an append would write into its neighbour", *list, cap(*list))
		}
		for _, term := range *list {
			if at := uintptr(unsafe.Pointer(unsafe.StringData(term))); len(term) > 0 && at >= lo && at < lo+uintptr(len(p)) {
				t.Fatalf("term %q points into the packed string: the expansion would keep it alive", term)
			}
		}
	}
	return true
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

// TestTargetEntryRoundTrip: pack then expand is ownedResult, for real
// identifier results and for the shapes the identifier rarely or never
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
		if e := c.newTargetEntry(eng, res); e.packed != "" || !reflect.DeepEqual(e.res, ownedResult(res)) {
			t.Errorf("%s: the entry is not ownedResult's copy: %+v", name, e)
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

// TestPackedEntryReadsAsMissOnAnotherEngine: a packed entry names its
// candidates by domain id in the engine it was packed against, so a
// pipeline whose identifier searches another engine never expands it —
// it reads as a miss, computes its own result and keeps that unpacked.
// The identifier ids were packed against sees its entry again, as it
// was.
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
	if e, ok := c.target.Get(key); !ok || e.packed == "" {
		t.Fatalf("a detector positive's target entry is not packed: %+v", e)
	}

	// The same documents, so the same result, in an engine of its own.
	other := search.NewEngine()
	for _, d := range corp.Engine.Docs() {
		other.Add(d)
	}
	elsewhere := &core.Pipeline{Detector: pipe.Detector, Identifier: target.New(other)}
	var prov core.MemoProvenance
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
	e, ok := c.target.Get(key)
	if !ok || e.res == nil || e.packed != "" {
		t.Fatalf("a result identified against another engine was packed: %+v", e)
	}

	// Packed again by the first engine's pipeline, and read back by it.
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheRefresh, nil); err != nil {
		t.Fatal(err)
	}
	v, err = c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, &prov)
	if err != nil || prov.Target != core.ProvMemo || !reflect.DeepEqual(v.Target, first.Target) {
		t.Fatalf("the packing engine's own read: err=%v provenance %+v target %+v", err, prov, v.Target)
	}
}

// TestFirstHitsRaceRewrites: goroutines make the first hits on the
// same packed entries together — each expands, and at most one
// expansion is put back in place of the string — while refresh passes
// rewrite those entries under them, so a put-back races the newer write
// that must win over it. Every verdict equals the direct one. Run under
// -race.
func TestFirstHitsRaceRewrites(t *testing.T) {
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
	c := New(Config{})
	for round := range 30 {
		for _, snap := range snaps { // a packed entry for every page
			if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheRefresh, nil); err != nil {
				t.Fatal(err)
			}
		}
		const hitters = 8
		var wg sync.WaitGroup
		errs := make(chan error, hitters)
		wg.Add(hitters + 1)
		go func() {
			defer wg.Done()
			for range round % 3 { // none, one or two rewrites of every page
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
				for i, snap := range snaps {
					v, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(v.Target, want[i].Target) || v.FinalPhish != want[i].FinalPhish {
						errs <- fmt.Errorf("round %d page %d: target %+v, want %+v", round, i, v.Target, want[i].Target)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
