package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Index snapshot ("snapshot.bin"): the segmented engine's fast-start
// path. It holds every live index row (meta + on-disk location, not
// the records themselves) plus a watermark; reopening loads it and
// replays only frames with seq > watermark, so startup cost is
// proportional to the index plus the un-snapshotted tail instead of the
// whole log. The format is a hand-rolled varint codec rather than JSON
// because the snapshot is read on every open and decoding 100k JSON
// rows would eat most of the fast-start budget.
//
// Layout: magic, then uvarint(nextSeq), uvarint(watermark), the active
// segment state (uvarint id — 0 for none — then uvarint offset,
// uvarint count, uvarint minSeq, uvarint maxSeq, uvarint sparse count
// and that many seq/off pairs), uvarint(count), count rows, and a
// trailing CRC-32C of everything after the magic. A row is:
//
//	uvarint seq · varint scoredAt · flag byte (bit0 phish) ·
//	uvarint seg · uvarint off · uvarint frameLen ·
//	4 length-prefixed strings (landing, start, fp, target)
//
// The active state lets reopen resume the active segment's replay at
// the watermark's byte offset (frames below it are already in the
// snapshot rows) — without it, a clean restart would re-parse the whole
// unsealed segment, which for a hot store is most of a segment's worth
// of JSON. The embedded segMeta seeds the sidecar-to-be so a later seal
// still records the segment's true count, seq range, and sparse index.
//
// A snapshot that fails its magic or CRC is ignored — recovery falls
// back to a full segment replay, never to a partial index. So is one
// with a row whose frame could not be a frame (no payload, or an end no
// file offset reaches) or does not lie inside its segment file
// (rowsFit): reads size their buffers by those numbers. The magic
// doubles as the format version: KPSNAP2 added a source string, and
// KPSNAP3 dropped it and the model name. A store opened with an older
// snapshot simply replays its segments once and writes the current
// format on the next snapshot.
const (
	snapshotFile  = "snapshot.bin"
	snapshotMagic = "KPSNAP3\n"
)

var errBadSnapshot = errors.New("store: unreadable snapshot")

// The fewest bytes a row (six one-byte numbers and flags, four empty
// strings) and a sparse point (two one-byte numbers) can encode to:
// decodeSnapshot holds the counts it is told against them before it
// allocates, so a snapshot cannot ask for more memory than a small
// multiple of its own size.
const (
	minSnapshotRowBytes    = 10
	minSnapshotSparseBytes = 2
)

// appendSnapshotString appends a length-prefixed string.
func appendSnapshotString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// activeState is the active segment's position at snapshot time: which
// segment was being appended to, how many framed bytes it held (all of
// them indexed by the snapshot rows), and the sidecar meta accumulated
// so far. id 0 means no active segment.
type activeState struct {
	id   uint64
	off  int64
	meta segMeta
}

// encodeSnapshot serializes the index's live rows, seq-ascending (the
// caller puts an unsorted index in order first), so decode can lay the
// slab out as it reads.
func encodeSnapshot(ix *memIndex, watermark uint64, act activeState) []byte {
	buf := make([]byte, 0, 64+ix.live()*96)
	buf = append(buf, snapshotMagic...)
	buf = binary.AppendUvarint(buf, ix.nextSeq)
	buf = binary.AppendUvarint(buf, watermark)
	buf = binary.AppendUvarint(buf, act.id)
	buf = binary.AppendUvarint(buf, uint64(act.off))
	buf = binary.AppendUvarint(buf, uint64(act.meta.count))
	buf = binary.AppendUvarint(buf, act.meta.minSeq)
	buf = binary.AppendUvarint(buf, act.meta.maxSeq)
	buf = binary.AppendUvarint(buf, uint64(len(act.meta.sparse)))
	for _, p := range act.meta.sparse {
		buf = binary.AppendUvarint(buf, p.Seq)
		buf = binary.AppendUvarint(buf, uint64(p.Off))
	}
	buf = binary.AppendUvarint(buf, uint64(ix.live()))
	for r := range ix.each {
		buf = binary.AppendUvarint(buf, r.seq)
		buf = binary.AppendVarint(buf, r.scoredAt)
		buf = append(buf, byte(r.n>>31)) // bit0: rowPhish
		buf = binary.AppendUvarint(buf, r.seg)
		buf = binary.AppendUvarint(buf, uint64(r.off))
		buf = binary.AppendUvarint(buf, uint64(r.n&rowLen))
		buf = appendSnapshotString(buf, r.landing)
		buf = appendSnapshotString(buf, r.start)
		buf = appendSnapshotString(buf, r.fp)
		buf = appendSnapshotString(buf, ix.names[r.target])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[len(snapshotMagic):], castagnoli))
}

// snapshotReader decodes the varint stream with sticky error state so
// row decoding reads linearly without per-field error plumbing. str is
// the same bytes as one shared string: decoded strings are substrings
// of it, so a 100k-row snapshot costs one string allocation instead of
// several hundred thousand (the rows retain the body, which is mostly
// those strings anyway).
type snapshotReader struct {
	buf []byte
	str string
	bad bool
}

func (r *snapshotReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *snapshotReader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *snapshotReader) byte() byte {
	if len(r.buf) < 1 {
		r.bad = true
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *snapshotReader) string() string {
	n := r.uvarint()
	if r.bad || uint64(len(r.buf)) < n {
		r.bad = true
		return ""
	}
	off := len(r.str) - len(r.buf)
	s := r.str[off : off+int(n)]
	r.buf = r.buf[n:]
	return s
}

// decodeSnapshot parses a snapshot payload back into a lazy index: the
// rows laid out in the slab and their names interned, nothing else
// built (see memIndex.lazy).
func decodeSnapshot(data []byte) (ix *memIndex, watermark uint64, act activeState, err error) {
	if len(data) < len(snapshotMagic)+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, 0, act, errBadSnapshot
	}
	body := data[len(snapshotMagic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, 0, act, errBadSnapshot
	}
	r := &snapshotReader{buf: body, str: string(body)}
	ix = newMemIndex()
	ix.nextSeq = max(r.uvarint(), 1)
	watermark = r.uvarint()
	act.id = r.uvarint()
	act.off = int64(r.uvarint())
	act.meta.count = int(r.uvarint())
	act.meta.minSeq = r.uvarint()
	act.meta.maxSeq = r.uvarint()
	sparseCount := r.uvarint()
	if r.bad || sparseCount > uint64(len(r.buf)/minSnapshotSparseBytes) {
		return nil, 0, activeState{}, errBadSnapshot
	}
	for i := uint64(0); i < sparseCount; i++ {
		seq := r.uvarint()
		off := int64(r.uvarint())
		act.meta.sparse = append(act.meta.sparse, sparsePoint{Seq: seq, Off: off})
	}
	// One block holds the rows, cut into the slab's chunks: a single
	// allocation of whole chunks, sized by a count bounded by the bytes
	// left to decode rows from.
	count := r.uvarint()
	if r.bad || count > uint64(len(r.buf)/minSnapshotRowBytes) || count > math.MaxInt32 {
		return nil, 0, activeState{}, errBadSnapshot
	}
	// A target is mostly "" or the one the row before had: only another
	// one is looked up in the name table.
	var target string
	var targetID uint32
	var last uint64
	block := make([]row, count, (count+rowChunk-1)/rowChunk*rowChunk)
	for lo := 0; lo < len(block); lo += rowChunk {
		ix.chunks = append(ix.chunks, block[lo:min(lo+rowChunk, len(block)):lo+rowChunk])
	}
	for i := range block {
		e := &block[i]
		e.seq = r.uvarint()
		e.scoredAt = r.varint()
		e.n = uint32(r.byte()&1) << 31 // rowPhish
		e.seg = r.uvarint()
		off, n := r.uvarint(), r.uvarint()
		// A frame is a header plus a non-empty payload, and its end must
		// be an offset a file can have.
		if n <= frameHeader || n > frameHeader+maxFramePayload || off > math.MaxInt64-n {
			r.bad = true
		}
		e.off, e.n = int64(off), e.n|uint32(n)
		e.landing = r.string()
		e.start = r.string()
		e.fp = r.string()
		if s := r.string(); s != target {
			target, targetID = s, ix.intern(s)
		}
		e.target = targetID
		if r.bad {
			return nil, 0, activeState{}, errBadSnapshot
		}
		ix.unsorted = ix.unsorted || e.seq < last
		if last = e.seq; e.seq >= ix.nextSeq {
			ix.nextSeq = e.seq + 1
		}
	}
	ix.rows = int32(len(block))
	ix.lazy = true
	return ix, watermark, act, nil
}

// rowsFit reports whether every row's frame [off, off+n) lies inside
// its segment, given the segment files' sizes (a segment that is not
// there has none).
func rowsFit(ix *memIndex, sizes map[uint64]int64) bool {
	for r := range ix.each {
		if l := r.loc(); l.off+int64(l.n) > sizes[l.seg] {
			return false
		}
	}
	return true
}

// writeSnapshot persists an encoded snapshot atomically.
func writeSnapshot(dir string, data []byte, fp func() error) error {
	if err := fp(); err != nil { // failpoint: crash before the snapshot lands
		return err
	}
	return atomicWrite(filepath.Join(dir, snapshotFile), data)
}

// loadSnapshot reads and decodes the directory's snapshot; ok is false
// (full replay) when absent or unreadable.
func loadSnapshot(dir string) (ix *memIndex, watermark uint64, act activeState, ok bool) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, 0, act, false
	}
	ix, watermark, act, err = decodeSnapshot(data)
	if err != nil {
		return nil, 0, activeState{}, false
	}
	return ix, watermark, act, true
}
