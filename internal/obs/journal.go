package obs

import (
	"sync"
	"time"
)

// Journal is a fixed-size ring of structured operational events — the
// flight recorder behind GET /debug/events. Subsystems record the
// moments an operator asks "what happened around then": SLO state
// transitions, shed episodes starting and ending. Recording is off
// every hot path
// (events are rare by definition), so a mutex and per-event allocation
// are fine here in a package otherwise built from atomics.
//
// All methods are nil-receiver safe: subsystems take an optional
// *Journal and call Record unconditionally.
type Journal struct {
	// Clock is the event timestamp source, for deterministic tests.
	// Set it before the first Record; nil means time.Now.
	Clock func() time.Time

	mu    sync.Mutex
	ring  []Event
	total uint64
}

// Event is one journal entry.
type Event struct {
	Seq    uint64            `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Msg    string            `json:"msg"`
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultJournalSize is the event retention when NewJournal is given a
// non-positive size.
const DefaultJournalSize = 256

// NewJournal builds a journal retaining the last size events.
func NewJournal(size int) *Journal {
	if size <= 0 {
		size = DefaultJournalSize
	}
	return &Journal{ring: make([]Event, size)}
}

// Record appends one event. kv lists alternating key/value strings; a
// trailing key without a value is dropped. Nil-safe no-op.
func (j *Journal) Record(typ, msg string, kv ...string) {
	if j == nil {
		return
	}
	var fields map[string]string
	if len(kv) >= 2 {
		fields = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			fields[kv[i]] = kv[i+1]
		}
	}
	now := time.Now
	if j.Clock != nil {
		now = j.Clock
	}
	ev := Event{Time: now(), Type: typ, Msg: msg, Fields: fields}
	j.mu.Lock()
	j.total++
	ev.Seq = j.total
	j.ring[(j.total-1)%uint64(len(j.ring))] = ev
	j.mu.Unlock()
}

// Events returns the retained events, newest first. Nil-safe (empty).
func (j *Journal) Events() []Event {
	if j == nil {
		return []Event{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	count := j.total
	if count > uint64(len(j.ring)) {
		count = uint64(len(j.ring))
	}
	out := make([]Event, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, j.ring[(j.total-1-i)%uint64(len(j.ring))])
	}
	return out
}

// Total returns the number of events ever recorded (retained or
// evicted). Nil-safe (0).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}
