package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"knowphish/internal/obs"
)

// The segmented engine. Appends go to a single active segment; when it
// would grow past SegmentBytes it is fsynced, described by a sidecar
// index, and sealed — sealed segments are immutable, which is what lets
// compaction and recovery reason about them without coordination.
// Only the index lives in memory; frames are read from their segment
// on demand, by the (segment, offset, length) the index holds.
//
// Crash-safety invariants:
//
//   - A frame is the unit of durability: the CRC makes a torn append
//     detectable, and recovery truncates the active segment back to its
//     last whole frame. Sealed segments are fsynced before their
//     sidecar lands, so the sealed prefix never loses a frame.
//   - A compaction output segment becomes visible (renamed from .tmp)
//     only after it is fsynced and its sidecar is on disk; old segments
//     are deleted only after the index snapshot reflecting the move is
//     written. A crash at any point leaves duplicate frames at worst,
//     and replay deduplicates by sequence number (newest wins per
//     landing URL + fingerprint, whatever order segments are read in).
//   - The snapshot is advisory: it only short-circuits replay of sealed
//     segments wholly below its watermark. Losing or corrupting it
//     costs a full replay, never data.
type segStore struct {
	dir          string
	syncEvery    bool
	segBytes     int64
	compactEvery int
	log          *slog.Logger

	mu         sync.Mutex
	ix         *memIndex
	active     *os.File
	activeID   uint64
	activeOff  int64
	activeMeta segMeta
	lastID     uint64 // highest segment ID ever allocated
	sealed     map[uint64]*sidecar
	closed     bool
	enc        *recordEncoder // frame scratch, reused under mu

	appends       int64
	compactions   int64
	superseded    int64
	compactErrors int64
	tailReplayed  int64
	snapshotSeq   uint64
	sinceCompact  int
	sinceSnap     int
	snapDirty     bool // index changed since the last snapshot encode

	// compactMu serializes compactions (manual and background); it is
	// never held while mu is held, and compaction holds mu only for
	// the brief victim-selection and index-flip critical sections —
	// appends proceed during the heavy copy work.
	compactMu sync.Mutex
	wg        sync.WaitGroup

	readers struct {
		sync.Mutex
		m map[uint64]*os.File
	}

	snapMu      sync.Mutex // serializes snapshot writes
	snapWritten uint64     // highest watermark persisted (under snapMu)

	fail failpoints
}

// segMeta accumulates the sidecar-to-be of the segment being written.
type segMeta struct {
	count          int
	minSeq, maxSeq uint64
	sparse         []sparsePoint
}

func (m *segMeta) note(seq uint64, off int64) {
	if m.count == 0 || seq < m.minSeq {
		m.minSeq = seq
	}
	if seq > m.maxSeq {
		m.maxSeq = seq
	}
	if m.count%sparseEvery == 0 {
		m.sparse = append(m.sparse, sparsePoint{Seq: seq, Off: off})
	}
	m.count++
}

func (m *segMeta) sidecar(bytes int64) *sidecar {
	return &sidecar{Count: m.count, MinSeq: m.minSeq, MaxSeq: m.maxSeq, Bytes: bytes, Sparse: m.sparse}
}

// failpoints are test-only crash injection hooks: a non-nil hook runs
// immediately before the named durability step and its error aborts the
// operation there, simulating a kill at that instant. pageRead is the
// one read-side hook: it opens the window in which a compaction can
// move a page's segments between the index walk and the read.
type failpoints struct {
	appendSync     func() error // before the per-append fsync (Sync mode)
	sealSync       func() error // before fsyncing the sealing segment
	sealSidecar    func() error // before the seal sidecar lands
	compactRename  func() error // before a compaction output renames into place
	compactInstall func() error // after outputs are visible, before the index flip
	compactDelete  func() error // before compacted segments are deleted
	snapshotWrite  func() error // before the snapshot lands
	pageRead       func() error // after a scan copies its page's locations, before it reads them
}

func fpcall(f func() error) error {
	if f == nil {
		return nil
	}
	return f()
}

// fpwrap adapts an optional hook to the non-optional callback the
// writer helpers take.
func fpwrap(f func() error) func() error {
	return func() error { return fpcall(f) }
}

// frameLoc is a record's on-disk address, copied out of the index so
// reads happen without the store lock.
type frameLoc struct {
	seg uint64
	off int64
	n   uint32
}

func openSegmented(cfg Config) (*segStore, error) {
	s := &segStore{
		dir:          cfg.Path,
		syncEvery:    cfg.Sync,
		segBytes:     int64(cfg.SegmentBytes),
		compactEvery: cfg.CompactEvery,
		log:          cfg.Logger,
		ix:           newMemIndex(),
		sealed:       map[uint64]*sidecar{},
		enc:          newRecordEncoder(),
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.readers.m = map[uint64]*os.File{}
	if s.segBytes == 0 {
		s.segBytes = DefaultSegmentBytes
	}
	if s.segBytes < frameHeader+1 {
		return nil, fmt.Errorf("store: SegmentBytes %d is unusably small", s.segBytes)
	}
	if s.compactEvery == 0 {
		s.compactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", s.dir, err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover rebuilds the index: snapshot first, then replay of every
// segment not wholly covered by the snapshot watermark, then reopening
// (or creating) the active segment.
func (s *segStore) recover() error {
	ids, err := listSegments(s.dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	if len(ids) > 0 {
		s.lastID = ids[len(ids)-1]
	}
	sizes := make(map[uint64]int64, len(ids))
	for _, id := range ids {
		if fi, err := os.Stat(segName(s.dir, id)); err == nil {
			sizes[id] = fi.Size()
		}
	}
	ix, watermark, act, snapOK := loadSnapshot(s.dir)
	// Reads size their buffers by a row's frame length and trust its
	// offset, so a snapshot naming a frame its segment does not hold
	// (the tail of an unsynced active segment lost with the machine, a
	// segment swapped underneath it) is not loaded at all: the segments
	// are replayed, which indexes exactly the frames that are there.
	snapOK = snapOK && rowsFit(ix, sizes)
	if snapOK {
		s.ix = ix
		s.snapshotSeq = watermark
	}
	// The active segment is the newest one never sealed (no sidecar).
	// Compaction outputs always land with their sidecar already on
	// disk, so an unsealed newest segment can only be a genuine active.
	activeID, haveActive := uint64(0), false
	var activeGood int64
	var activeMeta segMeta
	for i, id := range ids {
		sc, sealedSeg := loadSidecar(s.dir, id)
		if sealedSeg {
			s.sealed[id] = sc
		}
		if sealedSeg && snapOK && sc.MaxSeq <= watermark {
			continue // every live frame here is already in the snapshot
		}
		start := int64(0)
		limit := int64(-1)
		var seed segMeta
		if sealedSeg {
			limit = sc.Bytes
			if snapOK {
				start = sc.seekPoint(watermark)
			}
		} else if i == len(ids)-1 && snapOK && act.id == id {
			// The snapshot recorded where the active segment stood when it
			// was taken: every frame below act.off is already in the rows,
			// so replay resumes there with the sidecar meta seeded — the
			// fast-start path never re-parses the settled part of the
			// active segment. A shorter file than act.off means the
			// segment was tampered with; fall back to a full replay.
			if sizes[id] >= act.off {
				start, seed = act.off, act.meta
			}
		}
		meta, good, replayed, err := s.replaySegment(id, start, limit, watermark, snapOK, seed)
		if err != nil {
			return err
		}
		s.tailReplayed += replayed
		switch {
		case !sealedSeg && i == len(ids)-1:
			// Torn-tail recovery happens here and only here: the one
			// segment that can legally end mid-frame.
			activeID, haveActive, activeGood, activeMeta = id, true, good, meta
			if sizes[id] > good {
				if err := os.Truncate(segName(s.dir, id), good); err != nil {
					return fmt.Errorf("store: truncating torn tail of segment %d: %w", id, err)
				}
			}
		case !sealedSeg:
			// A non-newest segment missing its sidecar: a crash landed
			// between the seal fsync and the sidecar write. The frames
			// replayed fine — heal the sidecar from the replay.
			sc := meta.sidecar(good)
			if err := writeSidecar(s.dir, id, sc, fpwrap(nil)); err == nil {
				s.sealed[id] = sc
			}
		}
	}
	// The index diverges from the on-disk snapshot only if frames were
	// replayed past its watermark (or there was no snapshot at all); a
	// snapshot-complete open stays clean, so closing it again skips the
	// redundant snapshot rewrite.
	s.snapDirty = s.tailReplayed > 0 || (!snapOK && s.ix.rows > 0)
	if s.tailReplayed > 0 {
		// The replay cost of this open — the fast-start gauge an operator
		// watches after a crash.
		s.log.Info("recovered store by replaying log tail",
			"dir", s.dir, "records_replayed", s.tailReplayed, "snapshot_found", snapOK)
	}
	if haveActive {
		f, err := os.OpenFile(segName(s.dir, activeID), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: reopening active segment: %w", err)
		}
		s.active, s.activeID, s.activeOff, s.activeMeta = f, activeID, activeGood, activeMeta
		return nil
	}
	return s.openNextLocked()
}

// replaySegment indexes the frames of one segment from offset start up
// to limit (-1 → until the frames stop parsing). It returns the
// segment meta accumulated over the frames it read — on top of seed,
// for an active segment partially covered by the snapshot — the end
// offset of the last whole frame, and how many frames were past the
// snapshot watermark (the replayed tail).
func (s *segStore) replaySegment(id uint64, start, limit int64, watermark uint64, useWM bool, seed segMeta) (meta segMeta, good int64, replayed int64, err error) {
	meta = seed
	f, err := os.Open(segName(s.dir, id))
	if err != nil {
		return meta, 0, 0, fmt.Errorf("store: opening segment %d: %w", id, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return meta, 0, 0, fmt.Errorf("store: sizing segment %d: %w", id, err)
	}
	end := fi.Size()
	if limit >= 0 && limit < end {
		end = limit
	}
	off := start
	good = start
	for off < end {
		payload, flen, ferr := readFrameAt(f, off, end)
		if ferr != nil {
			break // torn tail (or simply the end of the segment)
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			break // undecodable payload: treat like a torn frame
		}
		meta.note(rec.Seq, off)
		if !useWM || rec.Seq > watermark {
			replayed++
		}
		// insert deduplicates against the snapshot and against
		// compaction-crash duplicates: an equal-or-older seq for a key
		// already indexed is dropped.
		s.ix.insert(&rec, frameLoc{id, off, uint32(flen)})
		off += flen
		good = off
	}
	return meta, good, replayed, nil
}

func (s *segStore) Append(ctx context.Context, rec Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.appendLocked(&rec)
}

// appendLocked sequences, timestamps (when unset), frames and writes
// one record.
func (s *segStore) appendLocked(rec *Record) error {
	rec.Seq = s.ix.nextSeq
	if rec.ScoredAt.IsZero() {
		rec.ScoredAt = time.Now().UTC()
	}
	frame, err := s.enc.frame(rec)
	if err != nil {
		return err
	}
	if s.active == nil {
		// A previous append sealed the old segment but failed to open
		// the next one; retry the open.
		if err := s.openNextLocked(); err != nil {
			return err
		}
	}
	if s.activeOff > 0 && s.activeOff+int64(len(frame)) > s.segBytes {
		if err := s.sealActiveLocked(); err != nil {
			return err
		}
		if err := s.openNextLocked(); err != nil {
			return err
		}
	}
	off := s.activeOff
	if _, err := s.active.Write(frame); err != nil {
		// Best effort to keep the file at a frame boundary; recovery
		// would truncate the torn frame anyway.
		_ = s.active.Truncate(off)
		return fmt.Errorf("store: appending to segment %d: %w", s.activeID, err)
	}
	if s.syncEvery {
		if err := fpcall(s.fail.appendSync); err != nil {
			return err
		}
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("store: syncing segment %d: %w", s.activeID, err)
		}
	}
	s.activeOff += int64(len(frame))
	s.ix.insert(rec, frameLoc{s.activeID, off, uint32(len(frame))})
	s.activeMeta.note(rec.Seq, off)
	s.snapDirty = true
	s.appends++
	s.sinceCompact++
	s.sinceSnap++
	if s.compactEvery > 0 && s.sinceCompact >= s.compactEvery {
		s.sinceCompact = 0
		s.startBackgroundCompactLocked()
	}
	return nil
}

// sealActiveLocked makes the active segment immutable: fsync, sidecar,
// close. Periodic snapshots piggyback on seals so their cost amortizes
// over a whole segment of appends.
func (s *segStore) sealActiveLocked() error {
	if err := fpcall(s.fail.sealSync); err != nil {
		return err
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: syncing sealing segment %d: %w", s.activeID, err)
	}
	sc := s.activeMeta.sidecar(s.activeOff)
	if err := writeSidecar(s.dir, s.activeID, sc, fpwrap(s.fail.sealSidecar)); err != nil {
		return fmt.Errorf("store: writing sidecar for segment %d: %w", s.activeID, err)
	}
	s.sealed[s.activeID] = sc
	_ = s.active.Close()
	s.active = nil
	if s.sinceSnap >= DefaultSnapshotEvery {
		s.sinceSnap = 0
		data, wm := s.encodeSnapshotLocked()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.persistSnapshot(data, wm)
		}()
	}
	return nil
}

func (s *segStore) openNextLocked() error {
	s.lastID++
	id := s.lastID
	f, err := os.OpenFile(segName(s.dir, id), os.O_WRONLY|os.O_CREATE|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating segment %d: %w", id, err)
	}
	s.active, s.activeID, s.activeOff = f, id, 0
	s.activeMeta = segMeta{}
	return nil
}

// encodeSnapshotLocked serializes the live index, seq-ascending, and
// returns the payload with its watermark.
func (s *segStore) encodeSnapshotLocked() (data []byte, watermark uint64) {
	s.ix.inOrder()
	watermark = s.ix.nextSeq - 1
	s.snapDirty = false
	var act activeState
	if s.active != nil {
		act = activeState{id: s.activeID, off: s.activeOff, meta: s.activeMeta}
	}
	return encodeSnapshot(s.ix, watermark, act), watermark
}

// persistSnapshot writes an encoded snapshot unless a newer one already
// landed (concurrent writers race benignly; the highest watermark wins).
func (s *segStore) persistSnapshot(data []byte, watermark uint64) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if watermark < s.snapWritten {
		return
	}
	if writeSnapshot(s.dir, data, fpwrap(s.fail.snapshotWrite)) != nil {
		return // advisory: a missing snapshot only slows the next open
	}
	s.snapWritten = watermark
	s.mu.Lock()
	if watermark > s.snapshotSeq {
		s.snapshotSeq = watermark
	}
	s.mu.Unlock()
}

// reader returns a cached read handle for a segment.
func (s *segStore) reader(id uint64) (*os.File, error) {
	s.readers.Lock()
	f := s.readers.m[id]
	s.readers.Unlock()
	if f != nil {
		return f, nil
	}
	f, err := os.Open(segName(s.dir, id))
	if err != nil {
		return nil, err
	}
	s.readers.Lock()
	if g := s.readers.m[id]; g != nil {
		s.readers.Unlock()
		_ = f.Close()
		return g, nil
	}
	s.readers.m[id] = f
	s.readers.Unlock()
	return f, nil
}

// dropReaders closes and forgets cached handles for deleted segments.
func (s *segStore) dropReaders(ids []uint64) {
	s.readers.Lock()
	for _, id := range ids {
		if f := s.readers.m[id]; f != nil {
			_ = f.Close()
			delete(s.readers.m, id)
		}
	}
	s.readers.Unlock()
}

// readAt fills buf from segment seg at off, whole or not at all.
func (s *segStore) readAt(seg uint64, off int64, buf []byte) error {
	f, err := s.reader(seg)
	if err != nil {
		return err
	}
	_, err = f.ReadAt(buf, off)
	return err
}

// loadPage is every indexed read: it appends the frames at locs (a
// page, newest first as the index walk found them; or one frame) to buf
// by their indexed lengths, verifies each in place and appends its
// payload to dst. buf grows at most once, to the page's size. Frames
// that lie back to back on disk are read together: a newest-first page
// over an append-only segment is one descending run, so it usually
// costs a single pread; a segment boundary, a superseded frame or a
// filter that skips rows starts the next run. On error both slices
// come back at their old lengths.
func (s *segStore) loadPage(ctx context.Context, dst []json.RawMessage, buf []byte, locs []frameLoc) ([]json.RawMessage, []byte, error) {
	total := 0
	for _, l := range locs {
		total += int(l.n)
	}
	buf = slices.Grow(buf, total)
	dst = slices.Grow(dst, len(locs))
	dst0, buf0 := len(dst), len(buf)
	for i := 0; i < len(locs); {
		if err := ctx.Err(); err != nil {
			return dst[:dst0], buf[:buf0], err
		}
		j := i + 1
		for j < len(locs) && locs[j].seg == locs[i].seg && locs[j].off+int64(locs[j].n) == locs[j-1].off {
			j++
		}
		start := locs[j-1].off
		size := int(locs[i].off + int64(locs[i].n) - start)
		run := buf[len(buf) : len(buf)+size]
		if err := s.readAt(locs[i].seg, start, run); err != nil {
			return dst[:dst0], buf[:buf0], err
		}
		// Newest first: the run's frames are appended in reverse of
		// their order in it.
		for k := i; k < j; k++ {
			lo := locs[k].off - start
			hi := lo + int64(locs[k].n)
			if err := checkFrame(run[lo:hi]); err != nil {
				return dst[:dst0], buf[:buf0], fmt.Errorf("store: frame at segment %d offset %d: %w", locs[k].seg, locs[k].off, err)
			}
			dst = append(dst, run[lo+frameHeader:hi:hi])
		}
		buf = buf[:len(buf)+size]
		i = j
	}
	return dst, buf, nil
}

func (s *segStore) Get(ctx context.Context, url string) (Record, bool, error) {
	if err := ctx.Err(); err != nil {
		return Record{}, false, err
	}
	// A concurrent compaction can delete a segment between the index
	// lookup and the disk read; the retry re-resolves the (by then
	// repointed) location. Two moves in a row are not possible for one
	// lookup, but the loop is cheap insurance.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return Record{}, false, ErrClosed
		}
		l, ok := s.ix.get(url)
		s.mu.Unlock()
		if !ok {
			return Record{}, false, nil
		}
		payloads, _, err := s.loadPage(ctx, nil, nil, []frameLoc{l})
		if err != nil {
			lastErr = err
			continue
		}
		var rec Record
		if err := json.Unmarshal(payloads[0], &rec); err != nil {
			return Record{}, false, fmt.Errorf("store: decoding record in segment %d: %w", l.seg, err)
		}
		return rec, true, nil
	}
	return Record{}, false, lastErr
}

func (s *segStore) Scan(ctx context.Context, q Query) (ScanPage, error) {
	return s.AppendScan(ctx, ScanPage{}, q)
}

// locPool recycles the frame locations a scan copies out of the index,
// so that reading a page into a caller's buffer allocates nothing sized
// by the page.
var locPool = sync.Pool{New: func() any { return new([]frameLoc) }}

// maxPooledLocs caps the locations a pooled slice may hold: an
// unlimited Scan over a large store must not pin its index copy.
const maxPooledLocs = 4096

func (s *segStore) AppendScan(ctx context.Context, dst ScanPage, q Query) (ScanPage, error) {
	cursor, hasCursor, err := parseCursor(q.Cursor)
	if err != nil {
		return dst, err
	}
	locs := locPool.Get().(*[]frameLoc)
	defer func() {
		if cap(*locs) <= maxPooledLocs {
			locPool.Put(locs)
		}
	}()
	page := dst
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return dst, ErrClosed
		}
		var last uint64
		var more bool
		*locs, last, more = s.ix.scan((*locs)[:0], q, cursor, hasCursor)
		s.mu.Unlock()
		if err := fpcall(s.fail.pageRead); err != nil {
			return dst, err
		}
		page.Payloads, page.Frames, err = s.loadPage(ctx, page.Payloads, page.Frames, *locs)
		if err != nil {
			lastErr = err // segment moved underneath us; retry the page
			continue
		}
		page.NextCursor = nextCursor(last, more)
		return page, nil
	}
	return dst, lastErr
}

func (s *segStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.live()
}

func (s *segStore) Path() string { return s.dir }

func (s *segStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs := len(s.sealed)
	if s.active != nil {
		segs++
	}
	return Stats{
		Records:       s.ix.live(),
		Appends:       s.appends,
		Compactions:   s.compactions,
		Superseded:    s.superseded,
		CompactErrors: s.compactErrors,
		Segments:      segs,
		SnapshotSeq:   s.snapshotSeq,
		TailReplayed:  s.tailReplayed,
	}
}

// startBackgroundCompactLocked launches a compaction goroutine unless
// one is already running (called with mu held; the goroutine itself
// takes no locks until it starts).
func (s *segStore) startBackgroundCompactLocked() {
	if !s.compactMu.TryLock() {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.compactMu.Unlock()
		if err := s.runCompact(context.Background()); err != nil && !errors.Is(err, ErrClosed) {
			s.mu.Lock()
			s.compactErrors++
			s.mu.Unlock()
			// The triggering append was durable; the rewrite retries at
			// the next trigger — but an operator should know disk-side
			// maintenance is failing.
			s.log.Error("background compaction failed", "dir", s.dir, "err", err)
		}
	}()
}

// Compact runs a merge compaction synchronously (waiting out any
// background one first). Appends are never blocked: the heavy copy work
// runs without the store lock.
func (s *segStore) Compact(ctx context.Context) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.runCompact(ctx)
}

// compactItem tracks one live frame through a compaction: where it was,
// which record it is, and where its copy landed.
type compactItem struct {
	seq    uint64
	loc    frameLoc
	newLoc frameLoc
}

// runCompact merges sealed segments containing superseded frames into
// fresh segments holding only live records. Callers hold compactMu.
//
// Locking profile: mu is held twice, briefly — to pick victims and to
// flip index locations. Reading victim frames and writing outputs (the
// actual IO) happens lock-free against immutable sealed segments.
func (s *segStore) runCompact(ctx context.Context) error {
	// Phase 1: pick victim segments — sealed ones whose live count
	// dropped below their frame count — and snapshot the live frames
	// they hold.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ix.inOrder() // the copies go out seq-ascending, as segments hold them
	liveBySeg := make(map[uint64]int, len(s.sealed)+1)
	for r := range s.ix.each {
		liveBySeg[r.seg]++
	}
	var victims []uint64
	victimFrames := 0
	for id, sc := range s.sealed {
		if liveBySeg[id] < sc.Count {
			victims = append(victims, id)
			victimFrames += sc.Count
		}
	}
	if len(victims) == 0 {
		s.mu.Unlock()
		return nil
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	inVictims := make(map[uint64]bool, len(victims))
	for _, id := range victims {
		inVictims[id] = true
	}
	var items []compactItem
	for r := range s.ix.each {
		if inVictims[r.seg] {
			items = append(items, compactItem{seq: r.seq, loc: r.loc()})
		}
	}
	s.mu.Unlock()

	// Phase 2 (lock-free): copy the live frames verbatim — they carry
	// their CRC already — into new output segments.
	out := &compactWriter{s: s}
	newSegs, err := func() ([]segResult, error) {
		var one []json.RawMessage
		var frame []byte
		for i := range items {
			var err error
			one, frame, err = s.loadPage(ctx, one[:0], frame[:0], []frameLoc{items[i].loc})
			if err != nil {
				return nil, fmt.Errorf("store: compacting segment %d: %w", items[i].loc.seg, err)
			}
			loc, err := out.write(frame, items[i].seq)
			if err != nil {
				return nil, err
			}
			items[i].newLoc = loc
		}
		return out.finish()
	}()
	if err != nil {
		out.abort()
		return err
	}

	if err := fpcall(s.fail.compactInstall); err != nil {
		// Crash point: outputs visible, index not flipped. Replay
		// dedupes the duplicate frames; the stray outputs are merged
		// away by a later compaction after reopen.
		return err
	}

	// Phase 3: flip the index to the new locations. A frame superseded
	// while we copied keeps its newer entry — the stale copy just
	// becomes a dead frame in the output, reclaimed next time.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	for _, it := range items {
		s.ix.move(it.seq, it.newLoc)
	}
	for _, id := range victims {
		delete(s.sealed, id)
	}
	for _, ns := range newSegs {
		s.sealed[ns.id] = ns.sc
	}
	s.superseded += int64(victimFrames - len(items))
	s.compactions++
	data, wm := s.encodeSnapshotLocked()
	s.mu.Unlock()

	// Phase 4: persist the moved index before unlinking the old
	// segments, then delete them. A crash in between costs nothing: the
	// new segments already hold every live frame.
	s.persistSnapshot(data, wm)
	if err := fpcall(s.fail.compactDelete); err != nil {
		return err
	}
	for _, id := range victims {
		_ = os.Remove(segName(s.dir, id))
		_ = os.Remove(idxName(s.dir, id))
	}
	s.dropReaders(victims)
	s.log.Debug("compaction merged segments",
		"victims", len(victims),
		"live_records", len(items),
		"superseded_dropped", victimFrames-len(items))
	return nil
}

// segResult is one finished compaction output segment.
type segResult struct {
	id uint64
	sc *sidecar
}

// compactWriter writes compaction output segments, rolling at the
// store's segment size. Outputs are written as .tmp files and renamed
// into place only after fsync + sidecar, preserving the invariant that
// a visible segment is complete and described.
type compactWriter struct {
	s    *segStore
	f    *os.File
	id   uint64
	off  int64
	meta segMeta
	done []segResult
	tmp  string
}

// allocSegID takes the next segment ID from the store's monotonic
// counter, shared with active-segment rolls so IDs never collide.
func (s *segStore) allocSegID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastID++
	return s.lastID
}

// write copies one verified frame, header and CRC included, to the
// output.
func (w *compactWriter) write(frame []byte, seq uint64) (frameLoc, error) {
	if w.f != nil && w.off > 0 && w.off+int64(len(frame)) > w.s.segBytes {
		if err := w.seal(); err != nil {
			return frameLoc{}, err
		}
	}
	if w.f == nil {
		w.id = w.s.allocSegID()
		w.tmp = segName(w.s.dir, w.id) + ".tmp"
		f, err := os.OpenFile(w.tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return frameLoc{}, fmt.Errorf("store: creating compaction output: %w", err)
		}
		w.f, w.off, w.meta = f, 0, segMeta{}
	}
	off := w.off
	if _, err := w.f.Write(frame); err != nil {
		return frameLoc{}, fmt.Errorf("store: writing compaction output: %w", err)
	}
	w.off += int64(len(frame))
	w.meta.note(seq, off)
	return frameLoc{seg: w.id, off: off, n: uint32(len(frame))}, nil
}

func (w *compactWriter) seal() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("store: syncing compaction output: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing compaction output: %w", err)
	}
	w.f = nil
	if err := writeSidecar(w.s.dir, w.id, w.meta.sidecar(w.off), fpwrap(nil)); err != nil {
		return fmt.Errorf("store: writing compaction sidecar: %w", err)
	}
	if err := fpcall(w.s.fail.compactRename); err != nil {
		return err
	}
	if err := os.Rename(w.tmp, segName(w.s.dir, w.id)); err != nil {
		return fmt.Errorf("store: installing compaction output: %w", err)
	}
	w.done = append(w.done, segResult{id: w.id, sc: w.meta.sidecar(w.off)})
	w.tmp = ""
	return nil
}

func (w *compactWriter) finish() ([]segResult, error) {
	if w.f != nil {
		if err := w.seal(); err != nil {
			return nil, err
		}
	}
	return w.done, nil
}

// abort cleans up an unfinished output. Already-renamed outputs stay:
// they hold valid duplicate frames that replay deduplicates and a later
// compaction merges away.
func (w *compactWriter) abort() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	if w.tmp != "" {
		_ = os.Remove(w.tmp)
		_ = os.Remove(idxName(w.s.dir, w.id))
		w.tmp = ""
	}
}

// Close seals nothing but makes everything durable: fsync the active
// segment, wait out background work, write a final snapshot (the
// fast-start path for the next open) and release handles.
func (s *segStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var firstErr error
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			firstErr = err
		}
	}
	s.mu.Unlock()

	// Wait out any in-flight compaction (it observes closed at its
	// next lock and stands down), then encode the final snapshot while
	// holding compactMu so no index flip can interleave. The active
	// handle closes only after the encode: the snapshot must record the
	// active segment's position so the next open resumes its replay at
	// the watermark offset instead of re-parsing the whole segment.
	s.compactMu.Lock()
	s.mu.Lock()
	var data []byte
	var wm uint64
	if s.snapDirty {
		data, wm = s.encodeSnapshotLocked()
	}
	if s.active != nil {
		if err := s.active.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.active = nil
	}
	s.mu.Unlock()
	s.compactMu.Unlock()
	s.wg.Wait()
	if data != nil {
		// A clean close (no appends, compactions or replayed tail since
		// open) skips this: rewriting an identical snapshot would make
		// every restart pay a full index serialization for nothing.
		s.persistSnapshot(data, wm)
	}

	s.readers.Lock()
	for id, f := range s.readers.m {
		_ = f.Close()
		delete(s.readers.m, id)
	}
	s.readers.Unlock()
	return firstErr
}
