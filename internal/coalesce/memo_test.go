package coalesce

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"knowphish/internal/racecheck"
	"knowphish/internal/webpage"
)

func key(n uint64) webpage.Key128 { return webpage.Key128{Hi: n * 0x9e3779b97f4a7c15, Lo: n} }

func TestMemoTableLRU(t *testing.T) {
	// memoShards entries per shard: total capacity 2 per shard here.
	tb := newMemoTable[int](2 * memoShards)
	// Keys 0,16,32 land in shard 0 (Lo & 15 == 0).
	tb.Put(key(0), 100)
	tb.Put(key(16), 116)
	if v, ok := tb.Get(key(0)); !ok || v != 100 {
		t.Fatalf("Get(0) = %v,%v", v, ok)
	}
	// Shard 0 full; inserting a third evicts the LRU — key 16, since the
	// Get above bumped key 0.
	tb.Put(key(32), 132)
	if _, ok := tb.Get(key(16)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := tb.Get(key(0)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := tb.Get(key(32)); !ok {
		t.Fatal("new entry missing")
	}
	st := tb.stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestMemoTableUpdateInPlace(t *testing.T) {
	tb := newMemoTable[string](memoShards)
	tb.Put(key(1), "a")
	tb.Put(key(1), "b")
	if v, _ := tb.Get(key(1)); v != "b" {
		t.Fatalf("updated value = %q, want b", v)
	}
	if n := tb.Len(); n != 1 {
		t.Fatalf("Len = %d after in-place update, want 1", n)
	}
}

func TestNilMemoTable(t *testing.T) {
	var tb *memoTable[int]
	tb.Put(key(1), 1)
	if _, ok := tb.Get(key(1)); ok {
		t.Fatal("nil table returned a hit")
	}
	if tb.Len() != 0 || tb.stats() != (TableStats{}) {
		t.Fatal("nil table reported entries")
	}
	if newMemoTable[int](-1) != nil {
		t.Fatal("negative capacity must return a nil (disabled) table")
	}
}

func TestMemoTableGetZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tb := newMemoTable[scoreEntry](1 << 10)
	for i := uint64(0); i < 100; i++ {
		tb.Put(key(i), scoreEntry{score: float64(i)})
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := uint64(0); i < 100; i++ {
			if _, ok := tb.Get(key(i)); !ok {
				t.Fatal("warm entry missing")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get allocated %.2f times per run, want 0", allocs)
	}
}

// BenchmarkMemoLookup is gate-pinned (scripts/bench_lib.sh): one warm
// sharded-LRU lookup, the unit cost every memoized stage saves against.
func BenchmarkMemoLookup(b *testing.B) {
	tb := newMemoTable[scoreEntry](DefaultMemoEntries)
	const n = 4096
	for i := uint64(0); i < n; i++ {
		tb.Put(key(i), scoreEntry{score: float64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Get(key(uint64(i) % n)); !ok {
			b.Fatal("miss on warm table")
		}
	}
}

// Key modes of the differential streams: keys spread over Hi, keys
// whose Hi agree in the low 48 bits (what grinding page bytes buys),
// and keys that all share one Hi — every key of a shard in one probe
// run, so deletions shift entries across the index's wrap-around.
const (
	keysSpread = iota
	keysGround
	keysSameHi
	keyModes
)

// diffKey is the i-th key of a differential stream's universe. Lo is i,
// so keys are distinct and spread over the shards in every mode.
func diffKey(i int, mode int) webpage.Key128 {
	switch mode {
	case keysGround:
		return webpage.Key128{Hi: uint64(i)*0x9e3779b97f4a7c15&^(1<<48-1) | 0x5eedc0ffee00, Lo: uint64(i)}
	case keysSameHi:
		return webpage.Key128{Hi: 0x5eedc0ffee00, Lo: uint64(i)}
	}
	return key(uint64(i))
}

// Ops of a differential stream.
const (
	opGet = iota
	opPut
)

type memoOp struct {
	kind byte
	key  int
}

// diffMemo drives a slab table and the reference table, both of
// perShard slots a shard, through ops and fails at the first Get
// result or stats (whose Entries is Len) that differ. Every 64th op
// it also checks the slab invariants of the shard the op touched. It
// returns the reference's final counters.
func diffMemo(t *testing.T, perShard, mode int, ops []memoOp) TableStats {
	t.Helper()
	got, want := newMemoTable[int](perShard*memoShards), newRefTable[int](perShard*memoShards)
	for n, op := range ops {
		k := diffKey(op.key, mode)
		switch op.kind {
		case opGet:
			v, ok := got.Get(k)
			wv, wok := want.Get(k)
			if v != wv || ok != wok {
				t.Fatalf("op %d: Get(key %d) = %d,%v, reference %d,%v", n, op.key, v, ok, wv, wok)
			}
		case opPut:
			got.Put(k, n)
			want.Put(k, n)
		}
		if g, w := got.stats(), want.stats(); g != w { // Entries is Len
			t.Fatalf("op %d (%d on key %d): stats %+v, reference %+v", n, op.kind, op.key, g, w)
		}
		if n%64 == 0 || n == len(ops)-1 {
			checkSlab(t, got.shard(k))
		}
	}
	return want.stats()
}

// checkSlab fails unless s's recency list links its n slots both ways
// and the index holds exactly those slots, at most half full, each
// where a lookup finds it.
func checkSlab[V any](t *testing.T, s *memoShard[V]) {
	t.Helper()
	seen, prev := 0, int32(noSlot)
	for i := s.head; i != noSlot; i = s.slot(i).next {
		if s.slot(i).prev != prev || seen == int(s.n) {
			t.Fatalf("recency list broken at slot %d (prev %d, want %d; %d of %d seen)", i, s.slot(i).prev, prev, seen, s.n)
		}
		prev = i
		seen++
	}
	if seen != int(s.n) || s.tail != prev {
		t.Fatalf("recency list: %d slots ending at %d, shard has %d ending at %d", seen, prev, s.n, s.tail)
	}
	cells := 0
	for _, e := range s.index {
		if e != 0 {
			cells++
		}
	}
	if cells != int(s.n) || 2*cells > len(s.index) {
		t.Fatalf("index holds %d of %d cells for %d slots", cells, len(s.index), s.n)
	}
	for i := range s.n {
		if got := s.find(s.slot(i).key); got != i {
			t.Fatalf("slot %d's key found at slot %d", i, got)
		}
	}
}

// TestMemoTableMatchesReference: random Get/Put streams over key
// universes small enough that shards fill, evict and refill give the
// slab table and the container/list table it replaced the same
// results, counters and lengths at every step.
func TestMemoTableMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 35))
		perShard := 1 + rng.IntN(300)
		if seed <= 3 {
			perShard = []int{1, 2, 33}[seed-1] // one slot, two slots, one past a chunk
		}
		mode := int(seed) % keyModes
		if mode == keysSameHi {
			perShard = min(perShard, 40) // every probe walks the whole shard
		}
		universe := perShard*memoShards + 1 + rng.IntN(2*perShard*memoShards)
		ops := make([]memoOp, 6*perShard*memoShards+2000)
		for i := range ops {
			ops[i] = memoOp{kind: opGet, key: rng.IntN(universe)}
			if rng.IntN(len(ops)) < len(ops)/2 {
				ops[i].kind = opPut
			}
		}
		t.Run(fmt.Sprintf("seed=%d/slots=%d/universe=%d/mode=%d", seed, perShard, universe, mode), func(t *testing.T) {
			if st := diffMemo(t, perShard, mode, ops); st.Evictions == 0 {
				t.Fatalf("no shard filled: %+v", st)
			}
		})
	}
}

// FuzzMemoTableMatchesReference is the differential test on
// fuzzer-written streams: three bytes an op (an even byte puts, an odd
// byte gets; then a big-endian key number).
func FuzzMemoTableMatchesReference(f *testing.F) {
	f.Add(uint16(0), uint16(40), uint8(keysSpread), []byte{0, 0, 1, 2, 0, 17, 1, 0, 1, 0xff, 0, 0, 1, 0, 1})
	// Two slots a shard: the Get of key 0 makes key 16 the one key 32 evicts.
	f.Add(uint16(1), uint16(95), uint8(keysSameHi), []byte{0, 0, 0, 0, 0, 16, 1, 0, 0, 0, 0, 32, 1, 0, 16, 1, 0, 0, 1, 0, 32})
	f.Add(uint16(32), uint16(2000), uint8(keysGround), []byte{2, 1, 0, 4, 2, 0, 6, 3, 0, 3, 1, 0})
	f.Fuzz(func(t *testing.T, slots, universe uint16, mode uint8, stream []byte) {
		perShard := 1 + int(slots)%300
		u := 1 + int(universe)%(3*perShard*memoShards)
		ops := make([]memoOp, 0, len(stream)/3)
		for ; len(stream) >= 3; stream = stream[3:] {
			op := memoOp{kind: opGet, key: int(binary.BigEndian.Uint16(stream[1:])) % u}
			if stream[0]%2 == 0 {
				op.kind = opPut
			}
			ops = append(ops, op)
		}
		diffMemo(t, perShard, int(mode)%keyModes, ops)
	})
}

// TestMemoIndexGroundKeys fills one shard with keys whose Hi agree in
// their low 48 bits — what grinding sha256 prefixes buys a client — and
// bounds the longest run of occupied index cells, which is what a
// lookup that misses walks. An index by Hi's low bits would put all
// 4 096 keys in one run.
func TestMemoIndexGroundKeys(t *testing.T) {
	const n, maxRun = 4096, 96
	tb := newMemoTable[int](DefaultMemoEntries)
	rng := rand.New(rand.NewPCG(48, 35))
	for i := range n {
		tb.Put(webpage.Key128{Hi: rng.Uint64()&^(1<<48-1) | 0x5eedc0ffee00, Lo: uint64(i) * memoShards}, i)
	}
	s := &tb.shards[0]
	if s.n != n {
		t.Fatalf("shard holds %d entries, want %d", s.n, n)
	}
	run, longest := 0, 0
	for i := range 2 * len(s.index) { // twice round, for a run across the wrap
		if run++; s.index[i%len(s.index)] == 0 {
			run = 0
		}
		longest = max(longest, run)
	}
	t.Logf("%d ground keys in %d cells: longest probe run %d", n, len(s.index), longest)
	if longest > maxRun {
		t.Fatalf("longest probe run %d cells, want at most %d", longest, maxRun)
	}
}

// TestMemoTablePutAllocs: inserting new keys allocates nothing per
// entry, only a chunk every memoChunk slots and an index that doubles
// (plus the chunk list's own growth). 4 096 inserts fill one shard of a
// default-size table.
func TestMemoTablePutAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 4096
	keys := make([]webpage.Key128, n)
	for i := range keys {
		keys[i] = key(uint64(i) * memoShards)
	}
	e := scoreEntry{score: 0.5}
	allocs := testing.AllocsPerRun(5, func() {
		tb := newMemoTable[scoreEntry](DefaultMemoEntries)
		for _, k := range keys {
			tb.Put(k, e)
		}
	}) - 1 // the table itself
	t.Logf("%d inserts of new keys into one shard: %.0f allocations", n, allocs)
	if per := allocs / n; per > 0.05 {
		t.Fatalf("%d inserts of new keys allocated %.0f times (%.3f per Put), want at most 0.05 per Put", n, allocs, per)
	}
}
