// Package store is the durable verdict store of the feed-ingestion
// pipeline: every scored URL becomes a Record, persisted by the storage
// engine behind the Backend interface and queryable through secondary
// indexes (by URL, by identified target brand, by time range) with
// cursor-based pagination.
//
// The engine is a segmented write-ahead log. Records are appended to a
// fixed-size active segment as CRC-framed JSON; full segments are
// sealed with a sidecar (frame count, highest seq, framed length) and
// become immutable. Only the in-memory index (seq, URLs, target,
// timestamp, on-disk location) is held in RAM — frames are read back
// from their segment on demand, so memory stays proportional to the
// index, not the log: about 212 B per record at 1 000 records and
// 172 B at 100 000, the records' strings aside
// (TestHeapAllocRetainedPerRecord). Recovery loads a binary snapshot of
// the index plus the log tail past the snapshot's watermark: it skips
// sealed segments the snapshot already covers, resumes at the
// snapshot's offset in the segment that was active when it was taken,
// and truncates a torn tail on the active segment only. Background merge compaction rewrites sealed
// segments dropping superseded verdicts (an older record for the same
// landing URL + content fingerprint) without ever blocking appends:
// sealed segments are immutable, so the rewrite happens outside the
// store lock and only the index repointing takes it.
//
// What a frame holds is the JSON document Append marshalled, and that
// document is what the HTTP API emits, so the read side never goes
// through a Record: Scan answers its filters, its order and its cursor
// from the index alone and returns the matching documents as raw bytes
// (ScanPage.Payloads) for the handler to splice into its response.
// AppendScan reads them into storage the caller supplies, so a reader
// that keeps its buffers (the verdict handlers pool theirs) reads a
// page without allocating for it. What vouches for those bytes is the
// frame's CRC-32C, checked on every read — the trust compaction already
// places in a frame when it copies it to a new segment undecoded. Get
// still decodes: its callers want one record's fields, not its bytes.
//
// This is the persistence layer the paper's deployment sketch (Section
// VI) needs but the batch evaluation never built: verdicts outlive the
// process, and a restarted service answers queries about everything it
// ever scored — at a scale (months of traffic, millions of verdicts)
// the single-file log could not reopen in bounded time.
package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"knowphish/internal/core"
)

// Defaults for Config zero values.
const (
	// DefaultCompactEvery is the append count between automatic
	// compactions.
	DefaultCompactEvery = 4096
	// DefaultSegmentBytes is the segment size: the active segment seals
	// and a new one opens when it would grow past this.
	DefaultSegmentBytes = 4 << 20
	// DefaultSnapshotEvery is the append count between periodic index
	// snapshots, taken at the first seal past it (snapshots are also
	// written on compaction and Close, so a cleanly closed store always
	// fast-starts).
	DefaultSnapshotEvery = 65536
)

// Record is one persisted verdict: the URL as it entered the feed, where
// it landed, what the pipeline decided, and which brand (if any) target
// identification named.
type Record struct {
	// Seq orders records; later records supersede earlier ones for the
	// same landing URL + fingerprint. Assigned by Append.
	Seq uint64 `json:"seq"`
	// URL is the starting URL as submitted to the feed.
	URL string `json:"url"`
	// LandingURL is where the crawl ended up.
	LandingURL string `json:"landing_url"`
	// RDN is the registered domain of the landing URL ("" for IP hosts).
	RDN string `json:"rdn,omitempty"`
	// Fingerprint is the content identity (webpage.Fingerprint, 32 hex
	// digits) of the scored snapshot — the verdict's
	// content_fingerprint. Records sharing LandingURL+Fingerprint are
	// verdicts about the same page; only the newest matters. Records
	// written before the identity became one value carry a 64-hex
	// sha256 of another preimage; they are never rewritten, so a page
	// re-ingested across that upgrade leaves its old record
	// un-superseded.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Outcome is the pipeline verdict.
	Outcome core.Outcome `json:"outcome"`
	// Target is the top identified target RDN for phishing verdicts
	// ("" when identification did not run or named nothing).
	Target string `json:"target,omitempty"`
	// ScoredAt is when the verdict was produced (UTC).
	ScoredAt time.Time `json:"scored_at"`
	// Error records a terminal ingestion failure (e.g. a URL the
	// fetcher does not hold) instead of an outcome.
	Error string `json:"error,omitempty"`
}

// Config assembles a Backend.
type Config struct {
	// Path locates the store's directory (created, with parents, if
	// missing). Required.
	Path string
	// Sync forces an fsync after every append. Durable against power
	// loss, but serializes appends on disk latency; leave false when
	// the OS page cache is trustworthy enough (the default, matching
	// most log pipelines). Sealed segments are always fsynced before
	// the seal is recorded, whatever this says.
	Sync bool
	// CompactEvery triggers compaction after that many appends
	// (0 → DefaultCompactEvery, negative → never automatically).
	// Compaction runs in the background; appends never wait.
	CompactEvery int
	// SegmentBytes is the segment size (0 → DefaultSegmentBytes).
	SegmentBytes int
	// Logger receives the engine's structured logs — compaction results
	// and failures, recovery replay (nil → discard).
	Logger *slog.Logger
}

// Stats are the store counters exported at /metrics.
type Stats struct {
	// Records is the number of live (indexed) verdicts.
	Records int `json:"records"`
	// Appends counts records written since Open.
	Appends int64 `json:"appends"`
	// Compactions counts log rewrites since Open.
	Compactions int64 `json:"compactions"`
	// Superseded counts records dropped by compaction since Open.
	Superseded int64 `json:"superseded"`
	// CompactErrors counts automatic compactions that failed (the
	// triggering append itself was durable; the rewrite is retried at
	// the next trigger).
	CompactErrors int64 `json:"compact_errors,omitempty"`
	// Segments is the segment-file count.
	Segments int `json:"segments,omitempty"`
	// SnapshotSeq is the watermark of the last index snapshot written
	// (0 → none yet this process).
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// TailReplayed counts records replayed past the snapshot watermark
	// when the store was opened — the cost of the last fast-start.
	TailReplayed int64 `json:"tail_replayed,omitempty"`
}

// Query filters the live records. Zero-valued fields match everything.
// All query paths return records newest-first (strictly descending
// Seq) — a deterministic order that pagination cursors rely on.
type Query struct {
	// Target restricts to records whose identified target RDN matches.
	Target string
	// URL restricts to records whose landing or starting URL matches.
	URL string
	// Since restricts to records scored at or after this time
	// (inclusive lower bound).
	Since time.Time
	// Until restricts to records scored before this time (exclusive
	// upper bound; half-open [Since, Until) ranges compose cleanly).
	Until time.Time
	// PhishOnly restricts to final phishing verdicts.
	PhishOnly bool
	// Limit caps the page size (0 → no cap). Newest first.
	Limit int
	// Cursor resumes a paginated Scan where the previous page left off
	// (the previous ScanPage.NextCursor). Empty starts from the newest
	// record. Cursors are opaque; they stay valid across appends and
	// compactions (new records land after the cursor position and are
	// not seen by an in-progress walk).
	Cursor string
}

// ScanPage is one page of a cursor-paginated Scan.
type ScanPage struct {
	// Payloads are the matching records, newest first, each the JSON
	// document the store holds for it — byte for byte what Append
	// marshalled, CRC-verified on the way out of its segment and not
	// decoded. They alias Frames and are read-only. The store keeps no
	// reference to either: a page from Scan is the caller's for as long
	// as it holds it; a page from AppendScan lives in storage the caller
	// supplied, and stays valid until the caller reuses that storage.
	//
	// Append stores only documents that decode and re-encode to
	// themselves, so splicing a payload into a response is
	// indistinguishable from marshalling its Record. Two kinds of older
	// frame are exceptions, served as stored because compaction copies
	// frames undecoded. One written before that rule held whose strings
	// carried invalid UTF-8 keeps the six-character \ufffd escape where
	// a re-encode would write U+FFFD itself — the same JSON value in
	// other bytes. One that carries a member Record no longer has
	// (explanation, model_version, source) keeps it; Get and Decode drop
	// it, as encoding/json skips unknown keys.
	Payloads []json.RawMessage
	// NextCursor resumes the scan after the last record of this page.
	// Empty when the scan is exhausted.
	NextCursor string
	// Frames is the storage Payloads alias: the page's frames, headers
	// included, as they were read from their segments.
	Frames []byte
}

// Decode parses the page into records, for the callers that want
// fields rather than bytes.
func (p ScanPage) Decode() ([]Record, error) {
	recs := make([]Record, len(p.Payloads))
	for i, raw := range p.Payloads {
		if err := json.Unmarshal(raw, &recs[i]); err != nil {
			return nil, fmt.Errorf("store: decoding record %d of the page: %w", i, err)
		}
	}
	return recs, nil
}

// ErrBadCursor reports a Query.Cursor that is not a cursor this store
// issued.
var ErrBadCursor = errors.New("store: malformed scan cursor")

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// cursorPrefix versions the cursor wire format.
const cursorPrefix = "s1-"

// encodeCursor makes the opaque resume token for "records older than
// seq".
func encodeCursor(seq uint64) string {
	return cursorPrefix + strconv.FormatUint(seq, 36)
}

// parseCursor validates and decodes a Query.Cursor ("" → no cursor).
func parseCursor(s string) (seq uint64, ok bool, err error) {
	if s == "" {
		return 0, false, nil
	}
	raw, found := strings.CutPrefix(s, cursorPrefix)
	if !found {
		return 0, false, fmt.Errorf("%w: %q", ErrBadCursor, s)
	}
	seq, perr := strconv.ParseUint(raw, 36, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("%w: %q", ErrBadCursor, s)
	}
	return seq, true, nil
}

// Backend is the verdict-store engine: append-only writes,
// point lookups, cursor-paginated scans over the secondary indexes,
// and compaction that drops superseded verdicts. All implementations
// are safe for concurrent use; every method observes ctx.
type Backend interface {
	// Append assigns the record a sequence number and timestamp (when
	// unset), persists it and indexes it.
	Append(ctx context.Context, rec Record) error
	// Get returns the newest record whose landing URL or starting URL
	// equals url, decoded.
	Get(ctx context.Context, url string) (Record, bool, error)
	// Scan returns one page of live records matching q, newest first,
	// with a cursor resuming after the page's last record. Matching and
	// ordering use the index only; the records come back as the stored
	// documents (see ScanPage), never decoded. It is AppendScan into a
	// fresh page: the page's storage is allocated for it and belongs to
	// the caller.
	Scan(ctx context.Context, q Query) (ScanPage, error)
	// AppendScan is Scan into storage the caller owns: it appends the
	// page's frames to dst.Frames and their payloads to dst.Payloads,
	// and returns dst extended, with this page's NextCursor. The
	// payloads alias the returned Frames, so they are valid until the
	// caller reuses that buffer — truncated for the next page, or put
	// back in a pool. Warm, into a dst with room for the page, it
	// allocates nothing sized by the page. On error the page is dst.
	AppendScan(ctx context.Context, dst ScanPage, q Query) (ScanPage, error)
	// Compact reclaims superseded records, merging sealed segments in
	// place without blocking concurrent appends.
	Compact(ctx context.Context) error
	// Stats returns the engine counters.
	Stats() Stats
	// Len returns the number of live records.
	Len() int
	// Path locates the store on disk.
	Path() string
	// Close flushes and closes the store. Further appends fail.
	Close() error
}

// Open opens (creating if necessary) the store directory at cfg.Path.
// A path that names anything but a directory is refused.
func Open(cfg Config) (Backend, error) {
	if cfg.Path == "" {
		return nil, errors.New("store: Config.Path is required")
	}
	// A failed open must yield a nil interface, not one holding a nil
	// *segStore that callers would mistake for an open store.
	s, err := openSegmented(cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// escapedReplacement is how json.Marshal writes a byte that is not
// valid UTF-8.
var escapedReplacement = []byte(`\ufffd`)

// recordEncoder frames records in a reused buffer: a json.Encoder
// writes each document straight into buf, where json.Marshal would
// return it in a fresh slice. Not safe for concurrent use; the store
// uses it under its lock.
type recordEncoder struct {
	je  *json.Encoder
	buf []byte
	// rec is the record being encoded: je takes it by pointer, so a copy
	// held here keeps the caller's record from escaping to the heap.
	rec Record
}

func newRecordEncoder() *recordEncoder {
	e := new(recordEncoder)
	e.je = json.NewEncoder(e)
	return e
}

// Write appends p to buf: the writer je encodes into.
func (e *recordEncoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// frame encodes a sequenced record as one frame and returns it: the
// encoder's buffer, valid until the next call. The payload is the
// document the store keeps and serves, and it must be a fixed point of
// decode → encode, because readers splice it into responses where they
// used to re-marshal the decoded record. json.Marshal breaks that in
// one case: it escapes an invalid UTF-8 byte as \ufffd, which decodes
// to U+FFFD and re-encodes as the character itself. Such a record (a
// landing URL out of a hostile Location header, say) is passed through
// decode → encode once here, and rec is left holding the decoded
// strings so its index row matches the one a replay of the frame would
// build.
func (e *recordEncoder) frame(rec *Record) ([]byte, error) {
	e.buf = append(e.buf[:0], make([]byte, frameHeader)...)
	err := e.encode(rec)
	if err == nil && bytes.Contains(e.buf[frameHeader:], escapedReplacement) {
		var canon Record
		if err = json.Unmarshal(e.buf[frameHeader:], &canon); err == nil {
			*rec = canon
			e.buf = e.buf[:frameHeader]
			err = e.encode(rec)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("store: encoding record: %w", err)
	}
	// Replay stops at a frame longer than this, so storing one would
	// lose it, and everything after it, on the next open.
	if n := len(e.buf) - frameHeader; n > maxFramePayload {
		return nil, fmt.Errorf("store: record encodes to %d bytes, over the %d-byte frame limit", n, maxFramePayload)
	}
	putFrameHeader(e.buf)
	return e.buf, nil
}

// encode appends rec's document to buf: json.Marshal's bytes, as an
// Encoder writes them plus a newline that is cut off here.
func (e *recordEncoder) encode(rec *Record) error {
	e.rec = *rec
	err := e.je.Encode(&e.rec)
	e.rec = Record{} // holds no strings between appends
	if err != nil {
		return err
	}
	e.buf = e.buf[:len(e.buf)-1]
	return nil
}

// nextCursor is the resume token of a page whose last row holds seq:
// that seq, when more rows match beyond it.
func nextCursor(last uint64, more bool) string {
	if !more {
		return ""
	}
	return encodeCursor(last)
}
