package coalesce

// Sharded LRU memo tables keyed by content key: 16 shards, generic over
// the stage value so the two tables — detector score, target result —
// share one implementation. A shard is a slab: entries live in
// fixed-size chunks of slots, linked into recency order by int32 slot
// numbers, and found through an open-addressed []int32 index. Lookups
// on a warm table perform no heap allocations, and inserts allocate
// nothing per entry: only a new chunk or a doubled index, as the shard
// fills.

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"knowphish/internal/webpage"
)

// memoShards is the shard count of every memo table. A power of two so
// the shard pick is a mask of the key's low bits.
const memoShards = 16

// memoChunk is the slot count of a full chunk: a shard allocates one
// as it fills past the last.
const memoChunk = 32

// noSlot ends a recency list.
const noSlot = -1

// memoSlot is one cached stage result and its place in recency order.
type memoSlot[V any] struct {
	key        webpage.Key128
	val        V
	prev, next int32 // towards head (more recent), towards tail; noSlot at the ends
}

// memoShard is one lock domain of a table. Slots 0..n-1 are all live:
// a shard only grows until it is full, then reuses its LRU slot for
// each insert, so no slot is ever free below n.
type memoShard[V any] struct {
	mu     sync.Mutex
	chunks [][]memoSlot[V]
	n      int32
	head   int32 // most recently used, noSlot when empty
	tail   int32 // least recently used, noSlot when empty

	// index holds slot+1 (0 = empty) at each key's home cell or after
	// it: linear probing, at most half full, doubled as the shard fills.
	// A key's home cell is the top bits of key.Hi × mul, mul odd and
	// drawn per shard, so a client who grinds page bytes until keys
	// agree in many bits of Hi still cannot aim them at one probe run.
	index []int32
	mul   uint64
	shift uint // 64 - log2(len(index))
}

// memoTable is a sharded LRU map from content key to a stage value.
type memoTable[V any] struct {
	shards [memoShards]memoShard[V]
	cap    int // max entries per shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// newMemoTable sizes a table for total entries across all shards.
// total <= 0 returns nil: a nil table misses every Get and drops every
// Put, which is how disabled memoization is represented.
func newMemoTable[V any](total int) *memoTable[V] {
	if total <= 0 {
		return nil
	}
	perShard := min(max(total/memoShards, 1), 1<<30) // slot numbers are int32
	t := &memoTable[V]{cap: perShard}
	for i := range t.shards {
		s := &t.shards[i]
		s.head, s.tail, s.mul = noSlot, noSlot, rand.Uint64()|1
	}
	return t
}

func (t *memoTable[V]) shard(k webpage.Key128) *memoShard[V] {
	return &t.shards[k.Lo&(memoShards-1)]
}

// Get returns the cached value for k, bumping its recency.
func (t *memoTable[V]) Get(k webpage.Key128) (V, bool) {
	var zero V
	if t == nil {
		return zero, false
	}
	s := t.shard(k)
	s.mu.Lock()
	i := s.find(k)
	if i == noSlot {
		s.mu.Unlock()
		t.misses.Add(1)
		return zero, false
	}
	s.touch(i)
	v := s.slot(i).val
	s.mu.Unlock()
	t.hits.Add(1)
	return v, true
}

// Put inserts or replaces the value for k, evicting the least recently
// used entry when the shard is full.
func (t *memoTable[V]) Put(k webpage.Key128, v V) {
	if t == nil {
		return
	}
	s := t.shard(k)
	s.mu.Lock()
	if i := s.find(k); i != noSlot {
		s.slot(i).val = v
		s.touch(i)
		s.mu.Unlock()
		return
	}
	i, evicted := s.n, int(s.n) == t.cap
	if evicted {
		i = s.tail
		s.unlink(i)
		s.unindex(s.slot(i).key)
	} else {
		s.n++
		if i%memoChunk == 0 {
			s.chunks = append(s.chunks, make([]memoSlot[V], min(memoChunk, t.cap-int(i))))
		}
		if 2*int(s.n) > len(s.index) {
			s.grow()
		}
	}
	sl := s.slot(i)
	sl.key, sl.val = k, v
	s.index[s.vacancy(k)] = i + 1
	s.pushFront(i)
	s.mu.Unlock()
	if evicted {
		t.evictions.Add(1)
	}
}

// Len returns the live entry count across shards.
func (t *memoTable[V]) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int(s.n)
		s.mu.Unlock()
	}
	return n
}

func (s *memoShard[V]) slot(i int32) *memoSlot[V] {
	return &s.chunks[i/memoChunk][i%memoChunk]
}

// home is k's first index cell.
func (s *memoShard[V]) home(k webpage.Key128) int {
	return int(k.Hi * s.mul >> s.shift)
}

// find returns k's slot, or noSlot.
func (s *memoShard[V]) find(k webpage.Key128) int32 {
	if s.n == 0 {
		return noSlot
	}
	mask := len(s.index) - 1
	for c := s.home(k); ; c = (c + 1) & mask {
		e := s.index[c]
		if e == 0 {
			return noSlot
		}
		if s.slot(e-1).key == k {
			return e - 1
		}
	}
}

// vacancy returns the empty cell where k, which is not indexed, goes.
func (s *memoShard[V]) vacancy(k webpage.Key128) int {
	mask := len(s.index) - 1
	c := s.home(k)
	for s.index[c] != 0 {
		c = (c + 1) & mask
	}
	return c
}

// unindex removes k's cell and shifts back the entries of its probe
// run that can move closer to home, so no run has a hole a lookup would
// stop at.
func (s *memoShard[V]) unindex(k webpage.Key128) {
	mask := len(s.index) - 1
	hole := s.home(k)
	for s.slot(s.index[hole]-1).key != k {
		hole = (hole + 1) & mask
	}
	for c := (hole + 1) & mask; s.index[c] != 0; c = (c + 1) & mask {
		// The entry at c may fill the hole unless its home lies
		// cyclically in (hole, c].
		if (c-s.home(s.slot(s.index[c]-1).key))&mask >= (c-hole)&mask {
			s.index[hole] = s.index[c]
			hole = c
		}
	}
	s.index[hole] = 0
}

// grow doubles the index (or makes the first one) and reinserts every
// live slot.
func (s *memoShard[V]) grow() {
	size := max(2*len(s.index), 2*memoChunk)
	s.index = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := range s.n - 1 { // the newest slot is not filled in yet
		s.index[s.vacancy(s.slot(i).key)] = i + 1
	}
}

// touch moves slot i to the front of the recency list.
func (s *memoShard[V]) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

func (s *memoShard[V]) unlink(i int32) {
	sl := s.slot(i)
	if sl.prev == noSlot {
		s.head = sl.next
	} else {
		s.slot(sl.prev).next = sl.next
	}
	if sl.next == noSlot {
		s.tail = sl.prev
	} else {
		s.slot(sl.next).prev = sl.prev
	}
}

func (s *memoShard[V]) pushFront(i int32) {
	sl := s.slot(i)
	sl.prev, sl.next = noSlot, s.head
	if s.head == noSlot {
		s.tail = i
	} else {
		s.slot(s.head).prev = i
	}
	s.head = i
}

// TableStats is one table's counters in a Stats snapshot.
type TableStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

func (t *memoTable[V]) stats() TableStats {
	if t == nil {
		return TableStats{}
	}
	return TableStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Evictions: t.evictions.Load(),
		Entries:   t.Len(),
	}
}
