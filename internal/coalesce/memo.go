package coalesce

// Sharded LRU memo tables keyed by content key: 16 shards, each a map
// over a recency list, generic over the stage value so the two tables —
// detector score, target result — share one implementation. Lookups on
// a warm table perform no heap allocations; inserts box one entry.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"knowphish/internal/webpage"
)

// memoShards is the shard count of every memo table. A power of two so
// the shard pick is a mask of the key's low bits.
const memoShards = 16

// memoEntry is one cached stage result.
type memoEntry[V any] struct {
	key webpage.Key128
	val V
}

// memoShard is one lock domain of a table.
type memoShard[V any] struct {
	mu sync.Mutex
	m  map[webpage.Key128]*list.Element
	ll *list.List // front = most recently used
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
	perShard := total / memoShards
	if perShard < 1 {
		perShard = 1
	}
	t := &memoTable[V]{cap: perShard}
	for i := range t.shards {
		t.shards[i].m = make(map[webpage.Key128]*list.Element)
		t.shards[i].ll = list.New()
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
	el, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		t.misses.Add(1)
		return zero, false
	}
	s.ll.MoveToFront(el)
	v := el.Value.(memoEntry[V]).val
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
	if el, ok := s.m[k]; ok {
		el.Value = memoEntry[V]{key: k, val: v}
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[k] = s.ll.PushFront(memoEntry[V]{key: k, val: v})
	var evicted bool
	if s.ll.Len() > t.cap {
		old := s.ll.Back()
		s.ll.Remove(old)
		delete(s.m, old.Value.(memoEntry[V]).key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		t.evictions.Add(1)
	}
}

// Flush drops every entry — the promotion hook.
func (t *memoTable[V]) Flush() {
	if t == nil {
		return
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.ll.Init()
		s.mu.Unlock()
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
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
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
