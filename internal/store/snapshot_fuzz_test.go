package store

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// realSnapshot is the snapshot.bin a segmented store leaves on Close.
func realSnapshot(f *testing.F) []byte {
	f.Helper()
	dir := filepath.Join(f.TempDir(), "verdicts")
	st, err := Open(Config{Path: dir})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		rec("http://a.test/", "http://a.test/", "fp1", "", true),
		rec("http://s.test/", "http://b.test/", "fp2", "brand.com", true),
		rec("http://a.test/", "http://a.test/", "fp1", "brand.com", true), // supersedes the first
		rec("http://c.test/", "http://c.test/", "fp3", "", false),
	} {
		if err := st.Append(context.Background(), r); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// sealSnapshot wraps body in a valid magic and CRC, so what reaches the
// row decoder is the body itself rather than a checksum rejection.
func sealSnapshot(body []byte) []byte {
	data := append([]byte(snapshotMagic), body...)
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(body, castagnoli))
}

// FuzzDecodeSnapshot feeds decodeSnapshot arbitrary file bytes — the
// snapshot sits on the operator's disk, and the CRC only guards against
// accidents. Each input is decoded as read and again as the body of a
// correctly sealed snapshot. Decoding must never panic, must reject or
// fully load (no partial index), must not allocate rows the input has
// no bytes for, must not accept a row whose frame could not be one
// (readers size buffers by it; rowsFit then holds each row to its
// segment's size, to the byte), and whatever it accepts must survive
// encodeSnapshot → decodeSnapshot unchanged: live rows, sequence
// numbers and active state.
func FuzzDecodeSnapshot(f *testing.F) {
	real := realSnapshot(f)
	body := real[len(snapshotMagic) : len(real)-4]
	f.Add(real)
	for _, cut := range []int{0, 3, len(snapshotMagic), len(real) / 2, len(real) - 5, len(real) - 1} {
		f.Add(real[:cut])
	}
	f.Add(body)
	f.Add(body[:len(body)/2])
	// Row counts that promise more rows than there are bytes: after
	// nextSeq and an empty active state, far too many, and one more than
	// the minimal row that follows.
	f.Add(binary.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<40))
	f.Add([]byte{2, 0, 0, 0, 0, 2, 1, 0, 0, 1, 0, frameHeader + 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealSnapshot(data)} {
			ix, act, err := decodeSnapshot(in)
			if err != nil {
				if ix != nil || act != (activeState{}) {
					t.Fatalf("rejected snapshot still returned state: index %v, active %+v", ix != nil, act)
				}
				continue
			}
			if int(ix.rows)*minSnapshotRowBytes > len(in) {
				t.Fatalf("%d rows out of %d bytes", ix.rows, len(in))
			}
			ends := map[uint64]int64{}
			for r := range ix.each {
				l := r.loc()
				end := l.off + int64(l.n)
				if l.n <= frameHeader || l.off < 0 || end < l.off {
					t.Fatalf("accepted a row with frame [%d, %d+%d)", l.off, l.off, l.n)
				}
				ends[l.seg] = max(ends[l.seg], end)
			}
			if !rowsFit(ix, ends) {
				t.Fatal("rows do not fit segments exactly as long as their last frame's end")
			}
			for seg := range ends {
				ends[seg]--
				if rowsFit(ix, ends) {
					t.Fatalf("rows fit segment %d one byte short of its last frame's end", seg)
				}
				ends[seg]++
			}
			rows := liveRows(ix) // in seq order, a duplicate key superseded
			ix2, act2, err := decodeSnapshot(encodeSnapshot(ix, act))
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			if rows2 := liveRows(ix2); ix2.nextSeq != ix.nextSeq || act2 != act || !reflect.DeepEqual(rows2, rows) {
				t.Fatalf("round trip changed the snapshot:\n got %d %+v %d rows\nwant %d %+v %d rows",
					ix2.nextSeq, act2, len(rows2), ix.nextSeq, act, len(rows))
			}
		}
	})
}

// TestDecodeSnapshotMinimalRows decodes a sealed snapshot made of the
// smallest rows the format has: six one-byte numbers and flags and four
// empty strings, ten bytes each. The bound decodeSnapshot holds a row
// count to (minSnapshotRowBytes) must admit them, or it refuses
// snapshots a store can write.
func TestDecodeSnapshotMinimalRows(t *testing.T) {
	const rows = 12
	body := []byte{rows + 1, 0, 0, 0, 0} // nextSeq, no active segment
	body = binary.AppendUvarint(body, rows)
	for seq := byte(1); seq <= rows; seq++ {
		// seq · scoredAt · flags · seg · off · frame length · landing, start, fp, target
		body = append(body, seq, 0, 0, 1, 0, frameHeader+1, 0, 0, 0, 0)
	}
	ix, _, err := decodeSnapshot(sealSnapshot(body))
	if err != nil || ix.rows != rows || ix.nextSeq-1 != rows {
		t.Fatalf("decode = %v; want %d rows, watermark %d", err, rows, rows)
	}
}
