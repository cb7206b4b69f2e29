package obs

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"knowphish/internal/racecheck"
)

// fakeClock is an atomically-settable clock for deterministic window
// tests.
type fakeClock struct {
	ns atomic.Int64
}

func newFakeClock(t0 time.Time) *fakeClock {
	c := &fakeClock{}
	c.ns.Store(t0.UnixNano())
	return c
}

func (c *fakeClock) Now() time.Time            { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration)   { c.ns.Add(int64(d)) }
func (c *fakeClock) Set(t time.Time)           { c.ns.Store(t.UnixNano()) }
func (c *fakeClock) clock() func() time.Time   { return c.Now }
func (c *fakeClock) At(d time.Duration) func() { return func() { c.Advance(d) } }

var windowT0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func TestWindowedHistBasic(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())

	// 10 observations spread over 10 seconds.
	for i := 0; i < 10; i++ {
		w.Observe(10 * time.Millisecond)
		clk.Advance(time.Second)
	}
	snap := w.Window(Window1m)
	if snap.Count() != 10 {
		t.Fatalf("1m window count = %d, want 10", snap.Count())
	}
	if p := snap.Percentile(99); p < 10_000 || p > 20_000 {
		t.Errorf("p99 = %dµs, want within [10ms, 20ms] bucket bound", p)
	}
	// The 5m (coarse) window sees the same data.
	if got := w.Window(Window5m).Count(); got != 10 {
		t.Errorf("5m window count = %d, want 10", got)
	}
}

// TestWindowedHistExpiry drives the clock past the window and checks
// old samples fall out — including the ring-wrap case where a stale
// slot is reclaimed by a new epoch.
func TestWindowedHistExpiry(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())

	w.Observe(5 * time.Millisecond)
	if got := w.Window(Window1m).Count(); got != 1 {
		t.Fatalf("fresh sample: count = %d, want 1", got)
	}

	// 61 s later the sample is outside the 1 m window even though its
	// slot memory still holds it (lazy expiry by epoch mismatch).
	clk.Advance(61 * time.Second)
	if got := w.Window(Window1m).Count(); got != 0 {
		t.Errorf("after 61s: 1m count = %d, want 0", got)
	}
	// ... but the 5 m coarse window still sees it.
	if got := w.Window(Window5m).Count(); got != 1 {
		t.Errorf("after 61s: 5m count = %d, want 1", got)
	}

	// A new observation landing in the recycled slot must not resurrect
	// the old count.
	w.Observe(5 * time.Millisecond)
	if got := w.Window(Window1m).Count(); got != 1 {
		t.Errorf("recycled slot: 1m count = %d, want 1", got)
	}

	// Past the coarse ring span everything ages out.
	clk.Advance(65 * time.Minute)
	if got := w.Window(Window1h).Count(); got != 0 {
		t.Errorf("after 65m idle: 1h count = %d, want 0", got)
	}
}

// TestWindowedHistIdleGap checks an idle gap shorter than the ring
// span leaves old in-window samples visible and excludes nothing else.
func TestWindowedHistIdleGap(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())

	w.Observe(time.Millisecond)
	clk.Advance(30 * time.Second) // idle gap, no rotation work happens
	w.Observe(time.Millisecond)

	if got := w.Window(Window1m).Count(); got != 2 {
		t.Errorf("1m count across 30s gap = %d, want 2", got)
	}
	// A 10 s window sees only the sample after the gap.
	if got := w.Window(10 * time.Second).Count(); got != 1 {
		t.Errorf("10s count = %d, want 1", got)
	}
}

// TestWindowedHistPartialWindow checks a window shorter than the data
// span truncates correctly at slot granularity, including the current
// partial slot.
func TestWindowedHistPartialWindow(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())

	// One sample per second for 20 s: fast (1 ms) for the first 10,
	// slow (100 ms) for the last 10.
	for i := 0; i < 20; i++ {
		d := time.Millisecond
		if i >= 10 {
			d = 100 * time.Millisecond
		}
		w.Observe(d)
		clk.Advance(time.Second)
	}
	// Trailing 10 s window holds only slow samples: the window spans
	// slots [now-9s, now], i.e. seconds 11..20, and second 20 (the
	// current partial slot) is empty — 9 samples, all slow.
	snap := w.Window(10 * time.Second)
	if snap.Count() != 9 {
		t.Fatalf("10s count = %d, want 9", snap.Count())
	}
	if p50 := snap.Percentile(50); p50 < 100_000 {
		t.Errorf("trailing-window p50 = %dµs, want >= 100ms (only slow samples in window)", p50)
	}
	// The full minute sees both halves; its p50 is the fast bucket.
	full := w.Window(Window1m)
	if full.Count() != 20 {
		t.Fatalf("1m count = %d, want 20", full.Count())
	}
	// Nearest rank: p50 of an exact 10/10 split is the 10th sample,
	// the last fast one.
	if p50 := full.Percentile(50); p50 >= 100_000 {
		t.Errorf("1m p50 = %dµs, want fast-bucket bound < 100ms", p50)
	}
}

// TestWindowedHistConcurrentRotate hammers Observe from many
// goroutines while another goroutine advances the clock across slot
// boundaries and readers take window snapshots — the observe-during-
// rotate interleaving the -race build must prove clean.
func TestWindowedHistConcurrentRotate(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())

	const writers = 4
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Clock driver: sweep across many fine-slot boundaries, but keep
	// the total advance bounded (30 s) so nothing ages out of the 1 m
	// window before the final assertion.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			select {
			case <-stop:
				return
			default:
				clk.Advance(10 * time.Millisecond)
			}
		}
	}()
	// Reader: snapshot windows while slots rotate under it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = w.Window(Window1m)
				_ = w.Window(Window5m)
			}
		}
	}()
	var writerWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		writerWG.Add(1)
		go func() {
			defer wg.Done()
			defer writerWG.Done()
			for j := 0; j < perWriter; j++ {
				w.Observe(time.Millisecond)
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	// The clock advanced at most 30 s, inside both ring spans, so every
	// sample is still in the 1 m and 1 h windows: rotation may misplace
	// samples across slot boundaries but must not lose them inside the
	// ring span.
	if got := w.Window(Window1m).Count(); got != writers*perWriter {
		t.Errorf("1m count after concurrent rotate = %d, want %d", got, writers*perWriter)
	}
	if got := w.Window(Window1h).Count(); got != writers*perWriter {
		t.Errorf("1h count after concurrent rotate = %d, want %d", got, writers*perWriter)
	}
	// The since-boot histogram never rotates: it holds every sample.
	if got := w.SinceBoot().Count(); got != writers*perWriter {
		t.Errorf("since-boot count after concurrent observes = %d, want %d", got, writers*perWriter)
	}
}

// TestWindowedHistSinceBoot: the since-boot histogram sees what the
// windows see while they cover the data, and keeps it after they
// expire.
func TestWindowedHistSinceBoot(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())
	for i := 0; i < 30; i++ {
		w.Observe(time.Duration(i+1) * time.Millisecond)
		clk.Advance(time.Second)
	}
	if boot, win := w.SinceBoot(), w.Window(Window1m); boot != win {
		t.Errorf("since-boot %+v != 1m window %+v while the window covers every sample", boot, win)
	}
	clk.Advance(2 * time.Hour)
	w.Observe(time.Millisecond)
	boot := w.SinceBoot()
	if boot.Count() != 31 || boot.MaxUS != 30_000 {
		t.Errorf("since-boot after the windows expired: count %d, max %d µs; want 31, 30000", boot.Count(), boot.MaxUS)
	}
	if got := w.Window(Window1h).Count(); got != 1 {
		t.Errorf("1h count = %d, want 1", got)
	}
	if got := (*WindowedHist)(nil).SinceBoot(); got.Count() != 0 {
		t.Errorf("nil since-boot count = %d", got.Count())
	}
}

// TestHistPercentileWithinOneBucket is the server-versus-client
// agreement as a deterministic property: over random sample sets, the
// histogram percentile is never below the exact nearest-rank
// percentile of the raw samples (what kpload reports) and never above
// twice it — one bucket. The open-ended last bucket reports the
// observed maximum instead.
func TestHistPercentileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sets := [][]int64{append(slices.Repeat([]int64{100}, 99), 50_000)} // 99 fast + 1 slow
	for i := 0; i < 300; i++ {
		set := make([]int64, 1+rng.Intn(2000))
		for j := range set {
			// Log-uniform over [1 µs, 2^27 µs), into the open bucket.
			set[j] = int64(math.Exp2(rng.Float64() * 27))
			if set[j] < 1 {
				set[j] = 1
			}
		}
		sets = append(sets, set)
	}
	now := func() time.Time { return windowT0 }
	for _, set := range sets {
		w := NewWindowedHist(now)
		for _, us := range set {
			w.Observe(time.Duration(us) * time.Microsecond)
		}
		snap := w.Window(Window1m)
		sorted := slices.Clone(set)
		slices.Sort(sorted)
		for _, p := range []float64{50, 90, 99, 99.9} {
			exact := sorted[int(math.Ceil(p*float64(len(sorted))/100-1e-9))-1]
			got := snap.Percentile(p)
			if exact >= 1<<(NumBuckets-1) {
				if got != sorted[len(sorted)-1] {
					t.Fatalf("n=%d p%v: exact %d µs is in the open bucket, got %d, want the max %d", len(set), p, exact, got, sorted[len(sorted)-1])
				}
				continue
			}
			if got < exact || got > 2*exact {
				t.Fatalf("n=%d p%v: histogram says %d µs, exact is %d µs (want within [exact, 2·exact])", len(set), p, got, exact)
			}
		}
	}
}

// TestWindowedHistObserveAllocs: Observe is on the per-request path of
// every instrumented endpoint and every traced stage, and feeds all
// three slots (since boot, fine, coarse) without allocating — except
// the first Observe of a histogram, which installs its rings in one
// allocation. Window reads allocate nothing.
func TestWindowedHistObserveAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 100
	fresh := make([]*WindowedHist, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i] = NewWindowedHist(nil)
	}
	i := 0
	first := testing.AllocsPerRun(runs, func() { fresh[i].Observe(time.Millisecond); i++ })
	if first != 1 {
		t.Fatalf("first Observe allocated %.1f times per call, want 1", first)
	}
	w := NewWindowedHist(nil)
	if allocs := testing.AllocsPerRun(1000, func() { w.Observe(time.Millisecond) }); allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per call, want 0", allocs)
	}
	if got := w.SinceBoot().Count(); got < 1000 {
		t.Errorf("since-boot count = %d, want every observation", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = w.Window(Window1m); _ = w.Window(Window1h) }); allocs != 0 {
		t.Errorf("Window allocated %.1f times per call, want 0", allocs)
	}
}

// TestWindowedHistRetainedBytes pins what a histogram costs: an unused
// one holds its since-boot histogram alone, and one that has observed
// also holds both rings of 64 slots of 128 bytes.
func TestWindowedHistRetainedBytes(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("heap retention is not meaningful under -race")
	}
	if got := unsafe.Sizeof(slot[slotHist]{}); got != 128 {
		t.Errorf("a ring slot is %d bytes, want 128", got)
	}
	collect := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const n = 1000
	for _, tc := range []struct {
		name     string
		observes int
		budget   int64
	}{{"unused", 0, 512}, {"observed once", 1, 17 << 10}} {
		hs := make([]*WindowedHist, n)
		before := collect()
		for i := range hs {
			hs[i] = NewWindowedHist(nil)
			for range tc.observes {
				hs[i].Observe(time.Millisecond)
			}
		}
		per := (collect() - before) / n
		runtime.KeepAlive(hs)
		t.Logf("%s: %d bytes retained per histogram", tc.name, per)
		if per > tc.budget {
			t.Errorf("%s: %d bytes retained per histogram, budget %d", tc.name, per, tc.budget)
		}
	}
}

// refObs is one observation the reference keeps: when, and how long.
type refObs struct{ atNS, us int64 }

// refSnapshot buckets the kept observations that keep admits, one
// bucket bound at a time.
func refSnapshot(kept []refObs, keep func(refObs) bool) HistSnapshot {
	var snap HistSnapshot
	for _, o := range kept {
		if !keep(o) {
			continue
		}
		b := 0
		for b < NumBuckets-1 && o.us >= int64(2)<<b {
			b++
		}
		snap.Buckets[b]++
		snap.N++
		snap.SumUS += o.us
		snap.MaxUS = max(snap.MaxUS, o.us)
	}
	return snap
}

// refWindow is the naive reading of a window: every kept observation
// whose slot lies in the trailing ⌈window/slot⌉ slots (at most 64),
// choosing 1 s slots up to 64 s and 1 min slots beyond.
func refWindow(kept []refObs, nowNS int64, window time.Duration) HistSnapshot {
	slotDur := int64(time.Second)
	if window > 64*time.Second {
		slotDur = int64(time.Minute)
	}
	k := min((int64(window)+slotDur-1)/slotDur, 64)
	return refSnapshot(kept, func(o refObs) bool {
		age := nowNS/slotDur - o.atNS/slotDur
		return age >= 0 && age < k
	})
}

// TestWindowedHistMatchesReference: over random streams of clock
// advances and durations — idle gaps past both ring periods included —
// every answer the histogram gives equals the naive reading of the
// observations it was given.
func TestWindowedHistMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for stream := 0; stream < 150; stream++ {
		clk := newFakeClock(windowT0.Add(time.Duration(rng.Int63n(int64(time.Hour)))))
		w := NewWindowedHist(clk.clock())
		var kept []refObs
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(100); {
			case r < 60: // same or next few seconds
				clk.Advance(time.Duration(rng.Int63n(int64(3 * time.Second))))
			case r < 85: // up to a few minutes
				clk.Advance(time.Duration(rng.Int63n(int64(5 * time.Minute))))
			case r < 95: // longer than the fine ring's period
				clk.Advance(65*time.Second + time.Duration(rng.Int63n(int64(30*time.Minute))))
			default: // longer than the coarse ring's period
				clk.Advance(65*time.Minute + time.Duration(rng.Int63n(int64(3*time.Hour))))
			}
			if rng.Intn(4) > 0 {
				d := time.Duration(math.Exp2(rng.Float64()*37)) - time.Microsecond // 0 to ≈ 2^27 µs, and negatives
				if rng.Intn(20) == 0 {
					d = -d
				}
				w.Observe(d)
				kept = append(kept, refObs{clk.Now().UnixNano(), max(d.Microseconds(), 0)})
			}
			now := clk.Now().UnixNano()
			all := refSnapshot(kept, func(refObs) bool { return true })
			if got := w.SinceBoot(); got != all {
				t.Fatalf("stream %d step %d: since boot %+v, reference %+v", stream, step, got, all)
			}
			random := time.Duration(1 + rng.Int63n(int64(2*time.Hour)))
			for _, win := range []time.Duration{Window1m, Window5m, Window1h, random} {
				if got, want := w.Window(win), refWindow(kept, now, win); got != want {
					t.Fatalf("stream %d step %d: window %v %+v, reference %+v", stream, step, win, got, want)
				}
			}
			sums := w.Summaries()
			for i, win := range []time.Duration{Window1m, Window5m, Window1h} {
				ref := refWindow(kept, now, win)
				want := WindowSummary{Window: sums[i].Window, Count: ref.Count(), MeanUS: ref.Mean(),
					P50US: ref.Percentile(50), P99US: ref.Percentile(99), P999US: ref.Percentile(99.9)}
				if sums[i] != want {
					t.Fatalf("stream %d step %d: summary %+v, reference %+v", stream, step, sums[i], want)
				}
			}
		}
	}
}

// TestSlotCountsWidenUnsigned: a slot bucket one short of full takes
// one more observation and reads back as 2^32−1 — widened from uint32,
// never sign-extended through int32.
func TestSlotCountsWidenUnsigned(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())
	w.Observe(time.Millisecond)
	b := bucketOf(time.Millisecond.Microseconds())
	rs, now := w.rings.Load(), clk.Now().UnixNano()
	fine, coarse := rs.fineRing(), rs.coarseRing()
	fine.at(now).buckets[b].Store(math.MaxUint32 - 1)
	coarse.at(now).buckets[b].Store(math.MaxUint32 - 1)
	w.Observe(time.Millisecond)
	for _, win := range []time.Duration{Window1m, Window1h} {
		if snap := w.Window(win); snap.Buckets[b] != 4_294_967_295 || snap.N != 4_294_967_295 {
			t.Errorf("window %v: bucket %d reads %d of %d, want 4294967295", win, b, snap.Buckets[b], snap.N)
		}
	}
}

// TestWindowedHistConcurrentFirstObserve races the ring install: eight
// goroutines make the first observations of a fresh histogram while two
// read windows. One install wins, and no observation is lost to a
// losing copy.
func TestWindowedHistConcurrentFirstObserve(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())
	const writers, perWriter = 8, 500
	start := make(chan struct{})
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	for range 2 {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			<-start
			for {
				select {
				case <-stop:
					return
				default:
					_ = w.Window(Window1m)
				}
			}
		}()
	}
	for range writers {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			<-start
			for range perWriter {
				w.Observe(time.Millisecond)
			}
		}()
	}
	close(start)
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if got := w.SinceBoot().N; got != writers*perWriter {
		t.Errorf("since-boot count = %d, want %d", got, writers*perWriter)
	}
	if got := w.Window(Window1m).N; got != writers*perWriter {
		t.Errorf("1m count = %d, want %d", got, writers*perWriter)
	}
}

func TestWindowedHistNilSafe(t *testing.T) {
	var w *WindowedHist
	w.Observe(time.Millisecond)
	if got := w.Window(Window1m).Count(); got != 0 {
		t.Errorf("nil Window count = %d", got)
	}
	if s := w.Summaries(); s != nil {
		t.Errorf("nil Summaries = %v, want nil", s)
	}
}

func TestWindowedHistSummaries(t *testing.T) {
	clk := newFakeClock(windowT0)
	w := NewWindowedHist(clk.clock())
	for i := 0; i < 100; i++ {
		w.Observe(2 * time.Millisecond)
	}
	sums := w.Summaries()
	if len(sums) != 3 {
		t.Fatalf("Summaries len = %d, want 3", len(sums))
	}
	for _, s := range sums {
		if s.Count != 100 {
			t.Errorf("window %s count = %d, want 100", s.Window, s.Count)
		}
		if s.P999US == 0 || s.P50US == 0 {
			t.Errorf("window %s percentiles unset: %+v", s.Window, s)
		}
	}
	if sums[0].Window != "1m" || sums[1].Window != "5m" || sums[2].Window != "1h" {
		t.Errorf("window order = %s,%s,%s", sums[0].Window, sums[1].Window, sums[2].Window)
	}
}

func TestWindowedCounter(t *testing.T) {
	clk := newFakeClock(windowT0)
	c := NewWindowedCounter(time.Hour, 5*time.Second, clk.clock())

	for i := 0; i < 90; i++ {
		c.Add(i%10 == 0) // 9 bad, 81 good
		clk.Advance(time.Second)
	}
	good, bad := c.Totals(2 * time.Minute)
	if good+bad != 90 {
		t.Fatalf("2m totals = %d+%d, want 90", good, bad)
	}
	if bad != 9 {
		t.Errorf("bad = %d, want 9", bad)
	}
	// Trailing 30 s: 30 events, 3 bad (i = 60, 70, 80 fall in the last
	// 30 observed seconds).
	g30, b30 := c.Totals(30 * time.Second)
	if g30+b30 < 25 || g30+b30 > 35 {
		t.Errorf("30s totals = %d (slot-granularity slop allowed, want ~30)", g30+b30)
	}
	// Expiry: advance past the ring span.
	clk.Advance(3 * time.Hour)
	if g, b := c.Totals(time.Hour); g != 0 || b != 0 {
		t.Errorf("after 3h idle: totals = %d,%d, want 0,0", g, b)
	}
	// Nil safety.
	var nilC *WindowedCounter
	nilC.Add(true)
	if g, b := nilC.Totals(time.Minute); g != 0 || b != 0 {
		t.Errorf("nil counter totals = %d,%d", g, b)
	}
}

func TestJournal(t *testing.T) {
	clk := newFakeClock(windowT0)
	j := NewJournal()

	const n = DefaultJournalSize + 2
	for i := 0; i < n; i++ {
		j.Record(clk.Now(), "slo_transition", "state change", "objective", "score", "idx", string(rune('a'+i%26)))
		clk.Advance(time.Second)
	}
	evs := j.Events()
	if len(evs) != DefaultJournalSize {
		t.Fatalf("retained %d events, want %d (ring size)", len(evs), DefaultJournalSize)
	}
	if j.Total() != n {
		t.Errorf("total = %d, want %d", j.Total(), n)
	}
	// Newest first, sequence numbers preserved across eviction, each
	// event stamped with the time its recorder passed.
	last := evs[len(evs)-1]
	if evs[0].Seq != n || last.Seq != 3 {
		t.Errorf("seqs = %d..%d, want %d..3", evs[0].Seq, last.Seq, n)
	}
	if want := windowT0.Add((n - 1) * time.Second); !evs[0].Time.Equal(want) {
		t.Errorf("newest event time = %v, want %v", evs[0].Time, want)
	}
	if !evs[0].Time.After(last.Time) {
		t.Errorf("events not newest-first: %v vs %v", evs[0].Time, last.Time)
	}
	if evs[0].Fields["objective"] != "score" {
		t.Errorf("fields = %v", evs[0].Fields)
	}

	// Nil safety: a subsystem with no journal records into the void.
	var nilJ *Journal
	nilJ.Record(windowT0, "x", "y")
	if got := nilJ.Events(); len(got) != 0 {
		t.Errorf("nil journal events = %v", got)
	}
	if nilJ.Total() != 0 {
		t.Errorf("nil journal total = %d", nilJ.Total())
	}
}

func BenchmarkWindowedHistWindow(b *testing.B) {
	w := NewWindowedHist(nil)
	for i := 0; i < 10000; i++ {
		w.Observe(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := w.Window(Window1m)
		_ = snap.Percentile(99)
	}
}
