package coalesce

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/racecheck"
	"knowphish/internal/target"
	"knowphish/internal/webgen"
	"knowphish/internal/webpage"
)

var (
	setupOnce sync.Once
	setupCorp *dataset.Corpus
	setupPipe *core.Pipeline
	setupErr  error
)

// fixtures builds one shared corpus + pipeline for every test.
func fixtures(t testing.TB) (*dataset.Corpus, *core.Pipeline) {
	t.Helper()
	setupOnce.Do(func() {
		setupCorp, setupErr = dataset.Build(dataset.Config{
			Seed:              61,
			Scale:             100,
			World:             webgen.Config{Seed: 62, Brands: 60, RankedGenerics: 60, VocabularyWords: 100},
			SkipLanguageTests: true,
		})
		if setupErr != nil {
			return
		}
		snaps := append(setupCorp.LegTrain.Snapshots(), setupCorp.PhishTrain.Snapshots()...)
		labels := append(setupCorp.LegTrain.Labels(), setupCorp.PhishTrain.Labels()...)
		var d *core.Detector
		d, setupErr = core.Train(snaps, labels, core.TrainConfig{
			Rank: setupCorp.World.Ranking(),
			GBM:  ml.GBMConfig{Trees: 50, MaxDepth: 4, Seed: 3},
		})
		if setupErr != nil {
			return
		}
		setupPipe = &core.Pipeline{Detector: d, Identifier: target.New(setupCorp.Engine)}
	})
	if setupErr != nil {
		t.Fatalf("fixtures: %v", setupErr)
	}
	return setupCorp, setupPipe
}

var (
	secondOnce sync.Once
	secondPipe *core.Pipeline
	secondErr  error
)

// secondDetector is a second trained detector, with its own model and
// its own threshold, over the fixture pipeline's identifier.
func secondDetector(t testing.TB) *core.Pipeline {
	t.Helper()
	corp, pipe := fixtures(t)
	secondOnce.Do(func() {
		snaps := append(corp.LegTrain.Snapshots(), corp.PhishTrain.Snapshots()...)
		labels := append(corp.LegTrain.Labels(), corp.PhishTrain.Labels()...)
		var d *core.Detector
		d, secondErr = core.Train(snaps, labels, core.TrainConfig{
			Rank:      corp.World.Ranking(),
			GBM:       ml.GBMConfig{Trees: 30, MaxDepth: 3, Seed: 9},
			Threshold: 0.4,
		})
		if secondErr != nil {
			return
		}
		secondPipe = &core.Pipeline{Detector: d, Identifier: pipe.Identifier}
	})
	if secondErr != nil {
		t.Fatalf("second detector: %v", secondErr)
	}
	return secondPipe
}

func mixedSnaps(t testing.TB, n int) []*webpage.Snapshot {
	t.Helper()
	c, _ := fixtures(t)
	var out []*webpage.Snapshot
	for i := 0; len(out) < n; i++ {
		out = append(out, c.PhishTest.Examples[i%len(c.PhishTest.Examples)].Snapshot)
		if len(out) < n {
			out = append(out, c.LegTrain.Examples[i%len(c.LegTrain.Examples)].Snapshot)
		}
	}
	return out
}

// TestDoMatchesAnalyzeCtx pins the memoized path, cold and warm, to
// per-request AnalyzeCtx verdicts, and the provenance to what the memo
// holds: a warm request is a hit on score (and target) alone, and the
// analysis and feature stages are computed or absent, never "memo".
func TestDoMatchesAnalyzeCtx(t *testing.T) {
	_, pipe := fixtures(t)
	c := New(Config{})
	ctx := context.Background()
	snaps := mixedSnaps(t, 20)
	for round := 0; round < 3; round++ { // round 0 cold, 1-2 warm
		for i, snap := range snaps {
			var prov core.MemoProvenance
			got, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, &prov)
			if err != nil {
				t.Fatalf("round %d snap %d: %v", round, i, err)
			}
			want, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Outcome, want.Outcome) || got.Label != want.Label {
				t.Fatalf("round %d snap %d: coalesced %+v != direct %+v", round, i, got.Outcome, want.Outcome)
			}
			if got.ContentKey != webpage.ContentKey(snap) || got.ContentFingerprint != "" {
				t.Fatalf("round %d snap %d: content key %v, fingerprint %q: want the page's key, unspelled", round, i, got.ContentKey, got.ContentFingerprint)
			}
			if round == 0 && (prov.Analysis != core.ProvComputed || prov.Features != core.ProvComputed || prov.Score != core.ProvComputed) {
				t.Fatalf("snap %d: cold provenance %+v, want analysis, features and score computed", i, prov)
			}
			if round > 0 && (!prov.Hit() || prov.Analysis != "" || prov.Features != "") {
				t.Fatalf("round %d snap %d: warm provenance %+v, want a hit with no analysis or features", round, i, prov)
			}
		}
	}
	st := c.Snapshot()
	if st.Score.Hits == 0 || st.Target.Hits == 0 {
		t.Fatalf("warm rounds produced no memo hits: %+v", st)
	}
	if st.Analysis != (TableStats{}) || st.Features != (TableStats{}) {
		t.Fatalf("retired analysis/features stats moved: %+v", st)
	}
}

// TestFingerprintStableAcrossPaths pins that the content key is pure
// content: same page, any cache-control, any temperature — one value,
// which spells the page's fingerprint.
func TestFingerprintStableAcrossPaths(t *testing.T) {
	_, pipe := fixtures(t)
	c := New(Config{})
	ctx := context.Background()
	snap := mixedSnaps(t, 1)[0]
	want := webpage.ContentKey(snap)
	for _, cc := range []CacheControl{CacheDefault, CacheNoMemo, CacheRefresh, CacheDefault} {
		v, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), cc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.ContentKey != want || v.ContentKey.String() != webpage.Fingerprint(snap) {
			t.Fatalf("%v: content key %v, want %v (fingerprint %s)", cc, v.ContentKey, want, webpage.Fingerprint(snap))
		}
	}
}

// TestCacheControlSemantics pins the three modes: no-memo neither reads
// nor writes, refresh recomputes but overwrites, default reads.
func TestCacheControlSemantics(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	snap := mixedSnaps(t, 1)[0]

	c := New(Config{})
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheNoMemo, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Snapshot(); st.Score.Entries != 0 || st.Target.Entries != 0 {
		t.Fatalf("no-memo wrote %d score / %d target entries, want 0/0", st.Score.Entries, st.Target.Entries)
	}

	var prov core.MemoProvenance
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, &prov); err != nil {
		t.Fatal(err)
	}
	if prov.Score != core.ProvComputed {
		t.Fatalf("first default score provenance %q, want computed", prov.Score)
	}
	if n := c.Snapshot().Score.Entries; n != 1 {
		t.Fatalf("default wrote %d score entries, want 1", n)
	}

	// Refresh must recompute even though the memo is populated...
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheRefresh, &prov); err != nil {
		t.Fatal(err)
	}
	if prov.Score != core.ProvComputed || prov.Analysis != core.ProvComputed {
		t.Fatalf("refresh provenance %+v, want all computed", prov)
	}
	// ...and a following default read hits what refresh wrote.
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, &prov); err != nil {
		t.Fatal(err)
	}
	if prov.Score != core.ProvMemo {
		t.Fatalf("post-refresh score provenance %q, want memo", prov.Score)
	}
}

// TestMemoServesOneDetector pins the tables to the first detector a
// pass goes through. A pass through a second detector returns exactly
// that detector's own AnalyzeCtx verdict: it reads no entry the first
// detector wrote, writes none of its own and counts as bypassed, while
// the first detector keeps hitting its entries. Then, on a fresh memo,
// both detectors race for the pin: whichever wins it, every verdict is
// its own detector's, and every pass through the other is bypassed.
// Run under -race.
func TestMemoServesOneDetector(t *testing.T) {
	_, pipe := fixtures(t)
	second := secondDetector(t)
	ctx := context.Background()
	snaps := mixedSnaps(t, 8)
	pipes := []*core.Pipeline{pipe, second}
	want := make([][]core.Verdict, len(pipes))
	differ := 0
	for p, pl := range pipes {
		for _, snap := range snaps {
			v, err := pl.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
			if err != nil {
				t.Fatal(err)
			}
			v.Timings = core.StageTimings{}
			want[p] = append(want[p], v)
		}
	}
	for i := range snaps {
		if want[0][i].Score != want[1][i].Score {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two detectors score every page alike: a shared entry would not show")
	}
	do := func(c *Coalescer, p int, i int) (core.Verdict, core.MemoProvenance, error) {
		var prov core.MemoProvenance
		v, err := c.Do(ctx, pipes[p], core.NewScoreRequest(snaps[i]), CacheDefault, &prov)
		v.Timings = core.StageTimings{}
		return v, prov, err
	}

	c := New(Config{})
	for i := range snaps {
		if _, _, err := do(c, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	filled := c.Snapshot()
	for round := range 2 {
		for i := range snaps {
			v, prov, err := do(c, 1, i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(v, want[1][i]) || prov != (core.MemoProvenance{}) {
				t.Fatalf("round %d page %d: the second detector's pass went through the memo (provenance %+v):\n got %+v\nwant %+v", round, i, prov, v.Outcome, want[1][i].Outcome)
			}
		}
	}
	if st := c.Snapshot(); st.Score != filled.Score || st.Target != filled.Target || st.Bypassed != 2*uint64(len(snaps)) {
		t.Fatalf("the second detector's passes moved the tables or were not bypassed:\n before %+v\n after  %+v", filled, st)
	}
	for i := range snaps {
		v, prov, err := do(c, 0, i)
		if err != nil || !prov.Hit() || v.Score != want[0][i].Score {
			t.Fatalf("page %d: the first detector lost its entry: hit=%v score %v, want %v, err %v", i, prov.Hit(), v.Score, want[0][i].Score, err)
		}
	}

	c = New(Config{})
	const workers, rounds = 8, 3
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for round := range rounds {
				for i := range snaps {
					v, _, err := do(c, p, i)
					if err == nil && (v.Score != want[p][i].Score || v.Label != want[p][i].Label || !reflect.DeepEqual(v.Target, want[p][i].Target)) {
						err = fmt.Errorf("detector %d round %d page %d: score %v label %s, want %v %s", p, round, i, v.Score, v.Label, want[p][i].Score, want[p][i].Label)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(w % 2)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pinned := c.detector.Load(); pinned != pipe.Detector && pinned != second.Detector {
		t.Fatalf("pinned %p, neither detector", pinned)
	}
	if st := c.Snapshot(); st.Bypassed != workers/2*rounds*uint64(len(snaps)) {
		t.Fatalf("%d passes bypassed, want the %d of the detector that lost the pin", st.Bypassed, workers/2*rounds*len(snaps))
	}
}

// TestDeadlinePropagation pins that one request's expired deadline
// produces its own error and never poisons concurrent requests.
func TestDeadlinePropagation(t *testing.T) {
	_, pipe := fixtures(t)
	c := New(Config{MemoEntries: -1})
	snaps := mixedSnaps(t, 6)

	var wg sync.WaitGroup
	errs := make([]error, len(snaps))
	for i, snap := range snaps {
		wg.Add(1)
		go func(i int, snap *webpage.Snapshot) {
			defer wg.Done()
			ctx := context.Background()
			var opts []core.ScoreOption
			if i == 0 {
				// A deadline that has certainly expired before scoring.
				opts = append(opts, core.WithDeadline(time.Nanosecond))
			}
			_, errs[i] = c.Do(ctx, pipe, core.NewScoreRequest(snap, opts...), CacheDefault, nil)
		}(i, snap)
	}
	wg.Wait()
	if !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("expired item's error = %v, want DeadlineExceeded", errs[0])
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] != nil {
			t.Fatalf("batchmate %d inherited an error: %v", i, errs[i])
		}
	}
}

// TestNilCoalescerDegradesToDirect pins the nil receiver contract.
func TestNilCoalescerDegradesToDirect(t *testing.T) {
	_, pipe := fixtures(t)
	var c *Coalescer
	snap := mixedSnaps(t, 1)[0]
	got, err := c.Do(context.Background(), pipe, core.NewScoreRequest(snap), CacheDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipe.AnalyzeCtx(context.Background(), core.NewScoreRequest(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatalf("nil coalescer score %v != direct %v", got.Score, want.Score)
	}
	if s := c.Snapshot(); s.Batches != 0 {
		t.Fatal("nil coalescer reported batches")
	}
}

// TestExplainBypass pins that explain requests route around
// memoization but still produce full verdicts.
func TestExplainBypass(t *testing.T) {
	_, pipe := fixtures(t)
	c := New(Config{})
	snap := mixedSnaps(t, 1)[0]
	v, err := c.Do(context.Background(), pipe, core.NewScoreRequest(snap, core.WithExplain(core.ExplainTop)), CacheDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Explanation == nil || len(v.Explanation.Contributions) == 0 {
		t.Fatal("explain request produced no evidence")
	}
	st := c.Snapshot()
	if st.Bypassed != 1 {
		t.Fatalf("bypassed = %d, want 1", st.Bypassed)
	}
	if st.Score.Entries != 0 || st.Target.Entries != 0 {
		t.Fatal("bypassed request wrote memos")
	}
}

// TestWarmPathZeroAllocs pins the cost of a memoized request on a
// detector positive: content hash, score and target hits and one staged
// pass. The target entry is decoded into the buffer the request lends,
// so with a buffer that has room — as a pooled one has once it has held
// a few results — every hit, the first included, makes no heap
// allocation. A request that lends none pays the decode's candidate and
// term arrays.
func TestWarmPathZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, pipe := fixtures(t)
	c := New(Config{})
	ctx := context.Background()
	snap := positives(t, 1)[0]
	// One P, as testing.AllocsPerRun runs with; a pool allocates once
	// for its first use after that changes, and the cold requests make
	// that use.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
		t.Fatal(err)
	}
	var prov core.MemoProvenance
	hit := func(req core.ScoreRequest) func() {
		return func() {
			v, err := c.Do(ctx, pipe, req, CacheDefault, &prov)
			if err != nil {
				t.Fatal(err)
			}
			if v.ContentKey == (webpage.Key128{}) || prov.Score != core.ProvMemo || prov.Target != core.ProvMemo {
				t.Fatalf("warm request missed the memo: %+v", prov)
			}
		}
	}
	// Room for any result: at most 30 candidates, and three term lists
	// of at most target.DefaultKeyterms terms each.
	buf := &core.TargetBuffer{Candidates: make([]target.Candidate, 0, 30), Terms: make([]string, 0, 3*target.DefaultKeyterms)}
	lent := hit(core.NewScoreRequest(snap).WithTargetBuffer(buf))
	if n := mallocs(lent); n != 0 {
		t.Fatalf("the first hit into a lent buffer allocated %d times, want 0", n)
	}
	if allocs := testing.AllocsPerRun(300, lent); allocs != 0 {
		t.Fatalf("warm memoized request allocated %.1f times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(300, hit(core.NewScoreRequest(snap))); allocs > 2 {
		t.Fatalf("a warm request that lends no buffer allocated %.1f times per run, want at most 2 (the decode's arrays)", allocs)
	}
}

// mallocs counts the heap allocations of one call of f, as
// testing.AllocsPerRun does over many.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestWarmLegitimateDoesNotProbeTarget pins the target table's hit
// rate to the pages it can hold: warm hits on a legitimate page never
// look it up (it only ever stores detector positives), while a
// memoised positive still hits it.
func TestWarmLegitimateDoesNotProbeTarget(t *testing.T) {
	corp, pipe := fixtures(t)
	ctx := context.Background()
	pick := func(exs []*dataset.Example, positive bool) *webpage.Snapshot {
		for _, ex := range exs {
			v, err := pipe.AnalyzeCtx(ctx, core.NewScoreRequest(ex.Snapshot))
			if err != nil {
				t.Fatal(err)
			}
			if v.TargetRun == positive {
				return ex.Snapshot
			}
		}
		t.Fatalf("no page with TargetRun=%v in the fixture", positive)
		return nil
	}
	legit, phish := pick(corp.LegTrain.Examples, false), pick(corp.PhishTest.Examples, true)

	const warm = 50
	c := New(Config{})
	for _, snap := range []*webpage.Snapshot{legit, phish} {
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Snapshot().Target
	for i := 0; i < warm; i++ {
		var prov core.MemoProvenance
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(legit), CacheDefault, &prov); err != nil || !prov.Hit() {
			t.Fatalf("warm legitimate Do: hit=%v err=%v", prov.Hit(), err)
		}
	}
	if after := c.Snapshot().Target; after != before {
		t.Fatalf("%d warm hits on a legitimate page moved the target table: %+v -> %+v", warm, before, after)
	}
	for i := 0; i < warm; i++ {
		var prov core.MemoProvenance
		v, err := c.Do(ctx, pipe, core.NewScoreRequest(phish), CacheDefault, &prov)
		if err != nil || !prov.Hit() || !v.TargetRun {
			t.Fatalf("warm positive Do: hit=%v target_run=%v err=%v", prov.Hit(), v.TargetRun, err)
		}
	}
	after := c.Snapshot().Target
	if after.Hits != before.Hits+warm || after.Misses != before.Misses {
		t.Fatalf("%d warm hits on a positive: target table %+v -> %+v, want +%d hits and no misses", warm, before, after, warm)
	}
}

// TestMemoRescoreAfterAnalysisReuse: a cold request releases its
// analysis, and the pages scored after it refill that analysis. A
// re-score of the first page from the memo must encode to the bytes its
// cold verdict encoded to (timings aside, which differ by nature).
func TestMemoRescoreAfterAnalysisReuse(t *testing.T) {
	_, pipe := fixtures(t)
	c := New(Config{})
	ctx := context.Background()
	snaps := mixedSnaps(t, 61)
	encode := func(v core.Verdict) string {
		v.Timings = core.StageTimings{}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cold, err := c.Do(ctx, pipe, core.NewScoreRequest(snaps[0]), CacheDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.TargetRun || len(cold.Target.Keyterms.Prominent) == 0 {
		t.Fatalf("the first page did not run target identification: %+v", cold.Outcome)
	}
	want := encode(cold)
	for _, snap := range snaps[1:] {
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
			t.Fatal(err)
		}
	}
	var prov core.MemoProvenance
	warm, err := c.Do(ctx, pipe, core.NewScoreRequest(snaps[0]), CacheDefault, &prov)
	if err != nil {
		t.Fatal(err)
	}
	if !prov.Hit() {
		t.Fatalf("re-score missed the memo: %+v", prov)
	}
	if got := encode(warm); got != want {
		t.Fatalf("memo re-score encodes differently:\n got %s\nwant %s", got, want)
	}
	if got := encode(cold); got != want {
		t.Fatalf("the kept cold verdict changed:\n got %s\nwant %s", got, want)
	}
}
