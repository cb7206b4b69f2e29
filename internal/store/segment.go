package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment file layout. A segment is a sequence of frames:
//
//	[payload length: uint32 LE][CRC-32C of payload: uint32 LE][payload]
//
// where the payload is one Record as JSON. The CRC detects torn or
// bit-rotted frames; a frame that fails its CRC (or runs past EOF) ends
// the readable prefix of the segment. Sealed segments additionally
// carry a "<id>.idx" sidecar with the segment's frame count, highest
// seq and framed length.
const (
	frameHeader = 8
	// maxFramePayload bounds a single frame; anything larger in a
	// header is corruption, not data (records are a few KB).
	maxFramePayload = 64 << 20
	segSuffix       = ".seg"
	idxSuffix       = ".idx"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTornFrame marks the end of a segment's readable prefix.
var errTornFrame = errors.New("store: torn or corrupt frame")

// putFrameHeader fills in the header of a frame whose payload was
// written after frameHeader reserved bytes.
func putFrameHeader(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// readFrameAt reads and verifies the frame at off by walking its header
// — the replay path, which has no index yet to say how long the frame
// is. end is how many bytes the segment holds: a header claiming more
// payload than the bytes left is torn before anything is allocated for
// it. It returns the payload and the full frame length. Torn, truncated
// or corrupt frames return errTornFrame.
func readFrameAt(r io.ReaderAt, off, end int64) (payload []byte, frameLen int64, err error) {
	var hdr [frameHeader]byte
	if end-off < frameHeader {
		return nil, 0, errTornFrame
	}
	if _, err := r.ReadAt(hdr[:], off); err != nil {
		return nil, 0, errTornFrame
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > maxFramePayload || n > end-off-frameHeader {
		return nil, 0, errTornFrame
	}
	payload = make([]byte, n)
	if _, err := r.ReadAt(payload, off+frameHeader); err != nil {
		return nil, 0, errTornFrame
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, 0, errTornFrame
	}
	return payload, frameHeader + n, nil
}

// checkFrame verifies a whole frame read by its indexed length: the
// header must claim exactly the payload that follows it, and the
// payload must match its CRC-32C. The payload is frame[frameHeader:].
func checkFrame(frame []byte) error {
	if len(frame) <= frameHeader {
		return errTornFrame
	}
	payload := frame[frameHeader:]
	if binary.LittleEndian.Uint32(frame[0:4]) != uint32(len(payload)) ||
		binary.LittleEndian.Uint32(frame[4:8]) != crc32.Checksum(payload, castagnoli) {
		return errTornFrame
	}
	return nil
}

// sidecar describes a segment when it seals ("<id>.idx", JSON). Count
// is its frame count, which compaction holds against the live rows;
// MaxSeq lets recovery skip a segment the snapshot watermark covers.
// Bytes is the exact framed length — anything past it in the .seg file
// is garbage from a crashed write and is ignored. Sidecars written
// before the format lost "min_seq" and "sparse" still load:
// encoding/json skips the keys.
type sidecar struct {
	Count  int    `json:"count"`
	MaxSeq uint64 `json:"max_seq"`
	Bytes  int64  `json:"bytes"`
}

func segName(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", id, segSuffix))
}

func idxName(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", id, idxSuffix))
}

// parseSegID extracts the segment ID from a ".seg" or ".idx" basename.
func parseSegID(base string) (uint64, bool) {
	stem, ok := strings.CutSuffix(base, segSuffix)
	if !ok {
		if stem, ok = strings.CutSuffix(base, idxSuffix); !ok {
			return 0, false
		}
	}
	id, err := strconv.ParseUint(stem, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// writeSidecar persists a segment's sidecar via temp-file + rename.
func writeSidecar(dir string, id uint64, sc *sidecar, fp func() error) error {
	data, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	if err := fp(); err != nil { // failpoint: crash before the sidecar lands
		return err
	}
	return atomicWrite(idxName(dir, id), data)
}

// loadSidecar reads a segment's sidecar; ok is false when absent or
// unreadable (the segment is then replayed from offset zero).
func loadSidecar(dir string, id uint64) (*sidecar, bool) {
	data, err := os.ReadFile(idxName(dir, id))
	if err != nil {
		return nil, false
	}
	sc := new(sidecar)
	if err := json.Unmarshal(data, sc); err != nil {
		return nil, false
	}
	return sc, true
}

// atomicWrite writes data to path via a same-directory temp file,
// fsync, and rename, so the path never holds a partial file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// listSegments returns the segment IDs present in dir, ascending, after
// sweeping crash leftovers: "*.tmp" files (half-written sidecars,
// snapshots or compaction outputs that never renamed into place) and
// orphaned ".idx" sidecars whose segment never appeared.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := map[uint64]bool{}
	var idxOnly []uint64
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		id, ok := parseSegID(name)
		if !ok {
			continue
		}
		if strings.HasSuffix(name, segSuffix) {
			segs[id] = true
		} else {
			idxOnly = append(idxOnly, id)
		}
	}
	for _, id := range idxOnly {
		if !segs[id] {
			os.Remove(idxName(dir, id))
		}
	}
	ids := make([]uint64, 0, len(segs))
	for id := range segs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
