package store

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// memStore is the in-memory engine: the shared index with each live
// record's document held beside it and nothing on disk — the segmented
// engine's read and write paths over bytes in RAM instead of frames in
// a file. It exists for tests and for callers that want the Backend
// query surface without persistence.
type memStore struct {
	path       string
	maxExplain int

	mu     sync.Mutex
	ix     *memIndex
	docs   map[uint64][]byte // seq → the live record's stored document, never written after insert
	closed bool

	appends     int64
	compactions int64
	superseded  int64
	explDropped int64
}

func newMemStore(cfg Config) *memStore {
	s := &memStore{path: cfg.Path, maxExplain: cfg.MaxExplainBytes, ix: newMemIndex(), docs: map[uint64][]byte{}}
	if s.maxExplain == 0 {
		s.maxExplain = DefaultMaxExplainBytes
	}
	return s
}

func (s *memStore) Append(ctx context.Context, rec Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if prepare(&rec, s.ix.nextSeq, s.maxExplain) {
		s.explDropped++
	}
	payload, err := encodePayload(&rec)
	if err != nil {
		return err
	}
	s.docs[rec.Seq] = payload
	if displaced, _ := s.ix.insert(metaOf(&rec)); displaced != nil {
		// No disk to reclaim from: a superseded record is gone the
		// moment its replacement lands.
		delete(s.docs, displaced.seq)
		s.superseded++
	}
	s.appends++
	return nil
}

func (s *memStore) Get(ctx context.Context, url string) (Record, bool, error) {
	if err := ctx.Err(); err != nil {
		return Record{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Record{}, false, ErrClosed
	}
	e := s.ix.get(url)
	if e == nil {
		return Record{}, false, nil
	}
	var rec Record
	if err := json.Unmarshal(s.docs[e.seq], &rec); err != nil {
		return Record{}, false, fmt.Errorf("store: decoding record: %w", err)
	}
	return rec, true, nil
}

func (s *memStore) Scan(ctx context.Context, q Query) (ScanPage, error) {
	cursor, hasCursor, err := parseCursor(q.Cursor)
	if err != nil {
		return ScanPage{}, err
	}
	if err := ctx.Err(); err != nil {
		return ScanPage{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ScanPage{}, ErrClosed
	}
	ents, more := s.ix.scan(q, cursor, hasCursor)
	payloads := make([]json.RawMessage, len(ents))
	for i, e := range ents {
		payloads[i] = s.docs[e.seq]
	}
	return ScanPage{Payloads: payloads, NextCursor: nextCursor(ents, more)}, nil
}

// Compact reclaims index holes (there is no log to rewrite).
func (s *memStore) Compact(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	live := s.ix.bySeq[:0]
	for _, e := range s.ix.bySeq {
		if !e.dead {
			live = append(live, e)
		}
	}
	for i := len(live); i < len(s.ix.bySeq); i++ {
		s.ix.bySeq[i] = nil
	}
	s.ix.bySeq = live
	s.ix.holes = 0
	s.compactions++
	return nil
}

func (s *memStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Backend:             BackendMemory,
		Records:             s.ix.live(),
		Appends:             s.appends,
		Compactions:         s.compactions,
		Superseded:          s.superseded,
		ExplanationsDropped: s.explDropped,
	}
}

func (s *memStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.live()
}

func (s *memStore) Path() string { return s.path }

func (s *memStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
