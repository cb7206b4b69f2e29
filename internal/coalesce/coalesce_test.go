package coalesce

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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
		d.SetVersion("m1")
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

// secondChampion is a second trained detector, version "m2", with its
// own model and its own threshold, over the fixture pipeline's
// identifier — what a promotion swaps in.
func secondChampion(t testing.TB) *core.Pipeline {
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
		d.SetVersion("m2")
		secondPipe = &core.Pipeline{Detector: d, Identifier: pipe.Identifier}
	})
	if secondErr != nil {
		t.Fatalf("second champion: %v", secondErr)
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

// TestInvalidateModelOnPromotion pins the promotion contract: the memo
// empties, and the first request per page under the new champion
// computes every stage and matches the champion's own direct verdict.
func TestInvalidateModelOnPromotion(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	c := New(Config{})
	snaps := mixedSnaps(t, 8)
	for _, snap := range snaps {
		if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Snapshot()
	if before.Score.Entries == 0 || before.Target.Entries == 0 {
		t.Fatalf("fixture produced empty tables: %+v", before)
	}

	// Promote: new detector (different version), flush hook fires.
	pipe2 := secondChampion(t)
	c.InvalidateModel()

	after := c.Snapshot()
	if after.Score.Entries != 0 || after.Target.Entries != 0 {
		t.Fatalf("promotion left %d score / %d target entries, want 0/0", after.Score.Entries, after.Target.Entries)
	}

	// No stale verdicts: scores under the new champion match its own
	// direct scoring, with nothing served from memo.
	var prov core.MemoProvenance
	for i, snap := range snaps {
		got, err := c.Do(ctx, pipe2, core.NewScoreRequest(snap), CacheDefault, &prov)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe2.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score || got.ModelVersion != "m2" {
			t.Fatalf("snap %d: post-promotion score %v (model %s) != direct %v", i, got.Score, got.ModelVersion, want.Score)
		}
		if prov.Analysis != core.ProvComputed || prov.Features != core.ProvComputed ||
			prov.Score != core.ProvComputed || prov.Target == core.ProvMemo {
			t.Fatalf("snap %d: post-promotion provenance %+v, want every stage computed", i, prov)
		}
	}
}

// TestVersionStampBlocksStaleReads covers the race the flush cannot: an
// entry written under the old version must miss under the new one even
// if InvalidateModel was never called.
func TestVersionStampBlocksStaleReads(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	c := New(Config{})
	snap := mixedSnaps(t, 1)[0]
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, nil); err != nil {
		t.Fatal(err)
	}
	d := pipe.Detector
	old := d.Version()
	d.SetVersion("stamp-check")
	defer d.SetVersion(old)
	var prov core.MemoProvenance
	if _, err := c.Do(ctx, pipe, core.NewScoreRequest(snap), CacheDefault, &prov); err != nil {
		t.Fatal(err)
	}
	if prov.Score == core.ProvMemo {
		t.Fatal("score memoized under the old version hit under the new one")
	}
}

// TestVersionInterning pins that entries are shared by version string,
// not by detector: a second *Detector loaded from the same model under
// the same version hits what the first computed, the same model under
// another version misses, and the interning table holds one id per
// distinct version however many requests ran.
func TestVersionInterning(t *testing.T) {
	corp, pipe := fixtures(t)
	ctx := context.Background()
	var saved bytes.Buffer
	if err := pipe.Detector.Save(&saved); err != nil {
		t.Fatal(err)
	}
	twin := func(ver string) *core.Pipeline {
		d, err := core.Load(bytes.NewReader(saved.Bytes()), corp.World.Ranking())
		if err != nil {
			t.Fatal(err)
		}
		d.SetVersion(ver)
		return &core.Pipeline{Detector: d, Identifier: pipe.Identifier}
	}
	same, other := twin(pipe.Detector.Version()), twin("m1-other")
	c := New(Config{})
	snaps := mixedSnaps(t, 8)
	do := func(p *core.Pipeline, snap *webpage.Snapshot) core.MemoProvenance {
		t.Helper()
		var prov core.MemoProvenance
		if _, err := c.Do(ctx, p, core.NewScoreRequest(snap), CacheDefault, &prov); err != nil {
			t.Fatal(err)
		}
		return prov
	}
	for i, snap := range snaps {
		do(pipe, snap)
		if prov := do(same, snap); !prov.Hit() {
			t.Fatalf("page %d: a second detector under version %q missed: %+v", i, same.Detector.Version(), prov)
		}
		if prov := do(other, snap); prov.Score != core.ProvComputed {
			t.Fatalf("page %d: version %q read an entry of version %q: %+v", i, other.Detector.Version(), pipe.Detector.Version(), prov)
		}
	}
	pipes := []*core.Pipeline{pipe, same, other, secondChampion(t)}
	for i := range 10_000 {
		do(pipes[i%len(pipes)], snaps[i%len(snaps)])
	}
	if n := len(*c.versions.Load()); n != 3 {
		t.Fatalf("interned %d version ids for versions m1, m1-other and m2, want 3", n)
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

// underPromotion runs score(worker, round) from 8 goroutines, rounds
// times each, while another goroutine calls promote in a loop, and
// fails the test with the first non-empty message score returns.
func underPromotion(t *testing.T, rounds int, promote func(i int), score func(w, round int) string) {
	t.Helper()
	stop := make(chan struct{})
	var promoter sync.WaitGroup
	promoter.Add(1)
	go func() {
		defer promoter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				promote(i)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	const workers = 8
	var wg sync.WaitGroup
	fail := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if msg := score(w, round); msg != "" {
					fail <- msg
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	promoter.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestConcurrentPromoteAndScore hammers Do against concurrent promotion
// flushes and version churn; run under -race this is the memo tables'
// safety net, and every verdict must still be internally consistent.
func TestConcurrentPromoteAndScore(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	c := New(Config{})
	snaps := mixedSnaps(t, 16)

	// A second champion to swap in and out.
	pipes := []*core.Pipeline{pipe, secondChampion(t)}

	want := make(map[string][2]float64, len(snaps))
	for _, snap := range snaps {
		v1, err := pipes[0].AnalyzeCtx(ctx, core.NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		v2, err := pipes[1].AnalyzeCtx(ctx, core.NewScoreRequest(snap))
		if err != nil {
			t.Fatal(err)
		}
		want[snap.LandingURL] = [2]float64{v1.Score, v2.Score}
	}

	underPromotion(t, 30, func(int) { c.InvalidateModel() }, func(w, round int) string {
		mi := (w + round) % 2
		snap := snaps[(w*7+round)%len(snaps)]
		v, err := c.Do(ctx, pipes[mi], core.NewScoreRequest(snap), CacheDefault, nil)
		if err != nil {
			return err.Error()
		}
		if v.Score != want[snap.LandingURL][mi] {
			return "score under model " + v.ModelVersion + " diverged (stale memo?)"
		}
		return ""
	})
}

// TestPromotionDifferential is the memo path ≡ AnalyzeCtx differential
// under concurrent promotion: scorers resolve the champion through an
// atomic pointer, as the serving layer does, while a promoter swaps it
// between two detectors (different models, different thresholds) and
// fires the promotion hook. Every verdict must equal, field for field,
// what the detector named by its own ModelVersion produces directly —
// no score from one model under another's threshold, label or target
// result. Run under -race.
func TestPromotionDifferential(t *testing.T) {
	_, pipe := fixtures(t)
	ctx := context.Background()
	c := New(Config{})
	snaps := mixedSnaps(t, 12)
	champions := []*core.Pipeline{secondChampion(t), pipe} // promotion order

	type expect struct {
		core.Outcome
		label     string
		threshold float64
	}
	want := make(map[string]map[*webpage.Snapshot]expect, len(champions))
	for _, p := range champions {
		ver := p.Detector.Version()
		want[ver] = make(map[*webpage.Snapshot]expect, len(snaps))
		for _, snap := range snaps {
			v, err := p.AnalyzeCtx(ctx, core.NewScoreRequest(snap))
			if err != nil {
				t.Fatal(err)
			}
			want[ver][snap] = expect{v.Outcome, v.Label, v.Threshold}
		}
	}

	var src atomic.Pointer[core.Detector]
	src.Store(pipe.Detector)
	promote := func(i int) {
		src.Store(champions[i%2].Detector)
		c.InvalidateModel()
	}
	underPromotion(t, 60, promote, func(w, round int) string {
		snap := snaps[(w*5+round)%len(snaps)]
		p := &core.Pipeline{Detector: src.Load(), Identifier: pipe.Identifier}
		v, err := c.Do(ctx, p, core.NewScoreRequest(snap), CacheDefault, nil)
		if err != nil {
			return err.Error()
		}
		got := expect{v.Outcome, v.Label, v.Threshold}
		if exp, ok := want[v.ModelVersion][snap]; !ok || !reflect.DeepEqual(got, exp) {
			return fmt.Sprintf("verdict under %q mixes models:\n got %+v\nwant %+v", v.ModelVersion, got, exp)
		}
		return ""
	})
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
	c.InvalidateModel() // must not panic
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
// detector positive. The first hit expands the packed target entry —
// the Result, its candidate and term arrays and its term bytes, at most
// four allocations — and every later hit is content hash, score and
// target hits and one staged pass: zero heap allocations.
func TestWarmPathZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, pipe := fixtures(t)
	c := New(Config{})
	ctx := context.Background()
	req := core.NewScoreRequest(positives(t, 1)[0])
	// One P, as testing.AllocsPerRun runs with; a pool allocates once
	// for its first use after that changes, and the cold request makes
	// that use.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := c.Do(ctx, pipe, req, CacheDefault, nil); err != nil {
		t.Fatal(err)
	}
	var prov core.MemoProvenance
	hit := func() {
		v, err := c.Do(ctx, pipe, req, CacheDefault, &prov)
		if err != nil {
			t.Fatal(err)
		}
		if v.ContentKey == (webpage.Key128{}) || prov.Score != core.ProvMemo || prov.Target != core.ProvMemo {
			t.Fatalf("warm request missed the memo: %+v", prov)
		}
	}
	if n := mallocs(hit); n > 4 {
		t.Fatalf("the first hit allocated %d times, want at most 4 (the expansion)", n)
	}
	if allocs := testing.AllocsPerRun(300, hit); allocs != 0 {
		t.Fatalf("warm memoized request allocated %.1f times per run, want 0", allocs)
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
