package coalesce

// The memo table as it was before the slab: a map over a
// container/list recency list per shard, allocating a list element and
// a boxed entry per insert.
// Kept verbatim (only its names changed, and Flush dropped with the
// slab table's) as the oracle the slab table is differentially tested
// against (memo_test.go).

import (
	"container/list"
	"sync"
	"sync/atomic"

	"knowphish/internal/webpage"
)

// refEntry is one cached stage result.
type refEntry[V any] struct {
	key webpage.Key128
	val V
}

// refShard is one lock domain of a table.
type refShard[V any] struct {
	mu sync.Mutex
	m  map[webpage.Key128]*list.Element
	ll *list.List // front = most recently used
}

// refTable is a sharded LRU map from content key to a stage value.
type refTable[V any] struct {
	shards [memoShards]refShard[V]
	cap    int // max entries per shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// newRefTable sizes a table for total entries across all shards.
// total <= 0 returns nil: a nil table misses every Get and drops every
// Put, which is how disabled memoization is represented.
func newRefTable[V any](total int) *refTable[V] {
	if total <= 0 {
		return nil
	}
	perShard := total / memoShards
	if perShard < 1 {
		perShard = 1
	}
	t := &refTable[V]{cap: perShard}
	for i := range t.shards {
		t.shards[i].m = make(map[webpage.Key128]*list.Element)
		t.shards[i].ll = list.New()
	}
	return t
}

func (t *refTable[V]) shard(k webpage.Key128) *refShard[V] {
	return &t.shards[k.Lo&(memoShards-1)]
}

// Get returns the cached value for k, bumping its recency.
func (t *refTable[V]) Get(k webpage.Key128) (V, bool) {
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
	v := el.Value.(refEntry[V]).val
	s.mu.Unlock()
	t.hits.Add(1)
	return v, true
}

// Put inserts or replaces the value for k, evicting the least recently
// used entry when the shard is full.
func (t *refTable[V]) Put(k webpage.Key128, v V) {
	if t == nil {
		return
	}
	s := t.shard(k)
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		el.Value = refEntry[V]{key: k, val: v}
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[k] = s.ll.PushFront(refEntry[V]{key: k, val: v})
	var evicted bool
	if s.ll.Len() > t.cap {
		old := s.ll.Back()
		s.ll.Remove(old)
		delete(s.m, old.Value.(refEntry[V]).key)
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		t.evictions.Add(1)
	}
}

// Len returns the live entry count across shards.
func (t *refTable[V]) Len() int {
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

func (t *refTable[V]) stats() TableStats {
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
