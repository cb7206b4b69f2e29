package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knowphish/internal/core"
)

// Tests of the raw read path: what Scan hands out is the stored
// document, so the document must be the bytes a re-marshal would write,
// and every length a reader sizes a buffer by must be backed by a file.

// appendFrame appends one framed payload to buf: a frame as Append
// writes it, for tests that lay segments down by hand.
func appendFrame(buf []byte, payload []byte) []byte {
	n := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = append(buf, payload...)
	putFrameHeader(buf[n:])
	return buf
}

// invalidUTF8 is a record whose every free-text field carries bytes
// that are not UTF-8 — a landing URL out of a hostile Location header.
func invalidUTF8() Record {
	const bad = "\xff\xfe"
	r := rec("http://lure.test/"+bad, "http://land.test/"+bad, "fp", "brand"+bad+".com", true)
	r.Error = "fetch: " + bad
	return r
}

// TestStoredPayloadIsFixedPoint: json.Marshal escapes an invalid byte
// as \ufffd but re-encodes the decoded string with U+FFFD itself, so a
// payload stored as first marshalled would differ from the re-marshal
// it stands in for. Append canonicalises; the index row follows the
// canonical strings.
func TestStoredPayloadIsFixedPoint(t *testing.T) {
	t.Run("segmented", func(t *testing.T) {
		b := openStore(t, Config{})
		for _, r := range []Record{rec("http://plain.test/", "http://plain.test/", "fp", "", false), invalidUTF8()} {
			if err := b.Append(ctxb(), r); err != nil {
				t.Fatal(err)
			}
		}
		page, err := b.Scan(ctxb(), Query{})
		if err != nil {
			t.Fatal(err)
		}
		recs := decodePage(t, page)
		if len(recs) != 2 {
			t.Fatalf("scan = %d records, want 2", len(recs))
		}
		for i, raw := range page.Payloads {
			again, err := json.Marshal(recs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again) {
				t.Errorf("payload %d is not what its record marshals to:\nstored: %s\n again: %s", i, raw, again)
			}
		}
		// The row is indexed under the strings a reader of the payload
		// sees — the ones a replay of the frame would index it under.
		bad := recs[0]
		if got, ok, err := b.Get(ctxb(), bad.LandingURL); err != nil || !ok || !reflect.DeepEqual(got, bad) {
			t.Errorf("Get by the stored landing URL = %+v ok=%v err=%v, want the record Scan returned", got, ok, err)
		}
		if byTarget, err := b.Scan(ctxb(), Query{Target: bad.Target}); err != nil || len(byTarget.Payloads) != 1 {
			t.Errorf("Scan by the stored target = %d records (err %v), want 1", len(byTarget.Payloads), err)
		}
		// The same page scored again supersedes it, before a restart as after.
		if err := b.Append(ctxb(), invalidUTF8()); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 2 {
			t.Errorf("Len after re-appending the same page = %d, want 2 (superseded)", b.Len())
		}
	})
}

// TestEscapedFrameServedAsStored: a frame written before Append
// canonicalised keeps its \ufffd escapes. It is served byte for byte as
// it lies on disk — the same JSON value as its re-marshal, in other
// bytes (the exception ScanPage documents).
func TestEscapedFrameServedAsStored(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := invalidUTF8()
	old.Seq = 1
	payload, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, escapedReplacement) {
		t.Fatalf("json.Marshal no longer escapes invalid UTF-8: %s", payload)
	}
	if err := os.WriteFile(segName(dir, 1), appendFrame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	s := segOpen(t, Config{Path: dir})
	page, err := s.Scan(ctxb(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Payloads) != 1 || !bytes.Equal(page.Payloads[0], payload) {
		t.Fatalf("payloads = %s, want the frame's bytes %s", page.Payloads, payload)
	}
	recs := decodePage(t, page)
	again, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(again, &back); err != nil || !reflect.DeepEqual(back, recs[0]) {
		t.Fatalf("re-marshalled record is another JSON value: %+v vs %+v (err %v)", back, recs[0], err)
	}
	// A fresh verdict for the page supersedes the old frame.
	if err := s.Append(ctxb(), invalidUTF8()); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1: the canonical record did not supersede the escaped frame", s.Len())
	}
}

// TestEvidenceFrameServedAsStored: a frame an older build wrote with
// per-feature evidence ("explanation", no longer a Record field) is
// still served byte for byte by Scan, and Get decodes the verdict
// without it.
func TestEvidenceFrameServedAsStored(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := Record{Seq: 1, URL: "http://e.test/", LandingURL: "http://e.test/",
		Outcome:  core.Outcome{Score: 0.9, DetectorPhish: true, FinalPhish: true},
		ScoredAt: time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)}
	payload, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	evidence := []byte(`,"explanation":{"bias":-1.25,"contributions":[{"index":3,"name":"url.dots","value":2,"log_odds":0.5}]},"scored_at"`)
	payload = bytes.Replace(payload, []byte(`,"scored_at"`), evidence, 1)
	if err := os.WriteFile(segName(dir, 1), appendFrame(nil, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	s := segOpen(t, Config{Path: dir})
	page, err := s.Scan(ctxb(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Payloads) != 1 || !bytes.Equal(page.Payloads[0], payload) {
		t.Fatalf("payloads = %s, want the frame's bytes %s", page.Payloads, payload)
	}
	got, ok, err := s.Get(ctxb(), old.URL)
	if err != nil || !ok || !reflect.DeepEqual(got, old) {
		t.Fatalf("Get = %+v, %v, %v; want %+v", got, ok, err, old)
	}
}

// TestScanRejectsCorruptFrame: the CRC is the read path's integrity
// check. A page with one bad frame in it is an error, never the frames
// around it.
func TestScanRejectsCorruptFrame(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	s := segOpen(t, Config{Path: dir, CompactEvery: -1})
	for i := 0; i < 9; i++ {
		if err := s.Append(ctxb(), rec("http://u.test/"+strconv.Itoa(i), "http://u.test/"+strconv.Itoa(i), "fp", "", false)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	mid := s.ix.at(4).loc()
	seg, at := mid.seg, mid.off+int64(mid.n)-2 // inside the fifth frame's payload
	s.mu.Unlock()
	flipByte(t, segName(dir, seg), at)
	if page, err := s.Scan(ctxb(), Query{}); !errors.Is(err, errTornFrame) || len(page.Payloads) != 0 {
		t.Fatalf("Scan over a corrupt frame = %d payloads, err %v; want none and errTornFrame", len(page.Payloads), err)
	}
	if _, _, err := s.Get(ctxb(), "http://u.test/4"); !errors.Is(err, errTornFrame) {
		t.Fatalf("Get of the corrupt frame: err = %v, want errTornFrame", err)
	}
	// Pages that do not touch it are served.
	if page, err := s.Scan(ctxb(), Query{Limit: 4}); err != nil || len(page.Payloads) != 4 {
		t.Fatalf("Scan of the newest four = %d payloads, err %v", len(page.Payloads), err)
	}
}

func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRowOutsideSegment: readers size buffers by a row's frame
// length, so a snapshot naming bytes its segment does not hold — here
// the last frame of an active segment that lost its tail — is dropped
// for a full replay, which indexes the frames that are there.
func TestSnapshotRowOutsideSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	s := segOpen(t, Config{Path: dir})
	for i := 0; i < 10; i++ {
		if err := s.Append(ctxb(), rec("http://u.test/"+strconv.Itoa(i), "http://u.test/"+strconv.Itoa(i), "fp", "", false)); err != nil {
			t.Fatal(err)
		}
	}
	active, size := s.activeID, s.activeOff
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segName(dir, active), size-3); err != nil {
		t.Fatal(err)
	}
	s2 := segOpen(t, Config{Path: dir})
	if st := s2.Stats(); st.TailReplayed != 9 || s2.Len() != 9 {
		t.Fatalf("reopen over a short segment: TailReplayed=%d Len=%d, want a full replay of the 9 whole frames", st.TailReplayed, s2.Len())
	}
	if all := scanAll(t, s2, Query{}, 4); len(all) != 9 {
		t.Fatalf("scan after recovery = %d records, want 9", len(all))
	}
}

// boundedReader fails the test when asked to fill more bytes than the
// data holds from that offset: every buffer readFrameAt allocates is
// passed to ReadAt whole, so this is "never allocates past the file".
type boundedReader struct {
	t    *testing.T
	data []byte
}

func (r boundedReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || int64(len(p)) > int64(len(r.data))-off {
		r.t.Fatalf("ReadAt of %d bytes at %d in a %d-byte segment", len(p), off, len(r.data))
	}
	return copy(p, r.data[off:]), nil
}

// FuzzReplaySegment feeds the replay path arbitrary segment bytes, bare
// and behind a prefix of whole frames — a segment is a file on the
// operator's disk, and its tail is whatever a crash left. Replay must
// never panic, never size a buffer by a header the file cannot back,
// stop at the same frame boundary a walk over the bytes in memory
// stops at, and recover the whole-frame prefix whatever follows it.
func FuzzReplaySegment(f *testing.F) {
	var frames [][]byte
	for i := 0; i < 3; i++ {
		r := rec("http://u.test/"+strconv.Itoa(i), "http://u.test/"+strconv.Itoa(i), "fp", "", i%2 == 0)
		r.Seq = uint64(i + 1)
		payload, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, appendFrame(nil, payload))
	}
	whole := bytes.Join(frames, nil)
	f.Add([]byte(nil), uint8(3))
	f.Add(whole, uint8(0))
	f.Add(whole[:len(whole)-5], uint8(1))
	f.Add([]byte("garbage after the prefix"), uint8(2))
	// Headers that promise 64 MiB, and 4 GiB, to a file of a few bytes.
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFramePayload), uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'}, uint8(3))
	// A CRC-valid frame whose payload is not a record.
	f.Add(appendFrame(nil, []byte("not json")), uint8(2))

	dir := f.TempDir()
	// replay runs the replay path over seg and holds it to a walk over
	// the same bytes in memory: what a frame is, restated.
	replay := func(t *testing.T, seg []byte) (segMeta, int64) {
		var want segMeta
		wantGood := 0
		for {
			rest := seg[wantGood:]
			if len(rest) < frameHeader {
				break
			}
			// In int64, as readFrameAt reads it: a 4 GiB length is
			// negative as a 32-bit int.
			n := int64(binary.LittleEndian.Uint32(rest))
			if n > maxFramePayload || n > int64(len(rest)-frameHeader) {
				break
			}
			payload := rest[frameHeader : frameHeader+int(n)]
			var r Record
			if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) || json.Unmarshal(payload, &r) != nil {
				break
			}
			want.note(r.Seq)
			wantGood += frameHeader + int(n)
		}

		br := boundedReader{t, seg}
		for off := int64(0); ; {
			_, flen, err := readFrameAt(br, off, int64(len(seg)))
			if err != nil {
				break
			}
			off += flen
		}

		if err := os.WriteFile(segName(dir, 1), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &segStore{dir: dir, ix: newMemIndex()}
		meta, good, _, err := s.replaySegment(1, 0, -1, 0, false, segMeta{})
		if err != nil {
			t.Fatalf("replaySegment: %v", err)
		}
		if good != int64(wantGood) || !reflect.DeepEqual(meta, want) {
			t.Fatalf("replay stopped at %d with %+v, the in-memory walk at %d with %+v", good, meta, wantGood, want)
		}
		return meta, good
	}
	f.Fuzz(func(t *testing.T, tail []byte, keep uint8) {
		k := int(keep) % (len(frames) + 1)
		prefix := bytes.Join(frames[:k], nil)
		bare, bareGood := replay(t, tail)
		with, withGood := replay(t, append(prefix, tail...))
		// Exactly the prefix, plus whatever whole frames the tail itself
		// begins with.
		if with.count != k+bare.count || withGood != int64(len(prefix))+bareGood {
			t.Fatalf("%d whole frames (%d bytes) then a tail holding %d (%d bytes): recovered %d frames, %d bytes",
				k, len(prefix), bare.count, bareGood, with.count, withGood)
		}
	})
}

// churn is record i of the concurrent-read tests: every field follows
// from i (the starting URL carries it), and landing URLs repeat every
// 30 records, so most frames are superseded and compaction always has
// segments to rewrite.
func churn(i int) Record {
	r := rec("http://lure.test/"+strconv.Itoa(i), "http://land.test/"+strconv.Itoa(i%30), "fp", "", false)
	if i%3 == 0 {
		r.Target, r.Outcome.FinalPhish = "novabank.com", true
	}
	r.ScoredAt = r.ScoredAt.Add(time.Duration(i) * time.Second)
	return r
}

// TestAppendScanConcurrentCompaction: readers that reuse one page's
// storage for every AppendScan, while an appender and a compactor run
// beside them, must always get whole pages of their own records — each
// payload exactly what its record marshals to, seqs falling strictly
// along each cursor walk — including pages retried because compaction
// moved a segment in the middle of the read.
func TestAppendScanConcurrentCompaction(t *testing.T) {
	b := openStore(t, Config{SegmentBytes: 2048, CompactEvery: -1})
	const seeded = 200
	for i := 0; i < seeded; i++ {
		if err := b.Append(ctxb(), churn(i)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := seeded; !stop.Load(); i++ {
			if err := b.Append(ctxb(), churn(i)); err != nil {
				t.Error(err)
				return
			}
			if i%8 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := b.Compact(ctxb()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var readers sync.WaitGroup
	for _, q := range []Query{{Limit: 5}, {Limit: 40}, {Target: "novabank.com", Limit: 9}, {PhishOnly: true, Limit: 100}} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var page ScanPage
			prev := uint64(math.MaxUint64)
			for range 200 {
				var err error
				page, err = b.AppendScan(ctxb(), ScanPage{Payloads: page.Payloads[:0], Frames: page.Frames[:0]}, q)
				if err != nil {
					t.Errorf("AppendScan %+v: %v", q, err)
					return
				}
				for _, raw := range page.Payloads {
					var r Record
					if err := json.Unmarshal(raw, &r); err != nil {
						t.Errorf("payload does not decode: %v: %.200s", err, raw)
						return
					}
					n, _ := strconv.Atoi(strings.TrimPrefix(r.URL, "http://lure.test/"))
					want := churn(n)
					want.Seq = r.Seq
					if doc, _ := json.Marshal(want); !bytes.Equal(raw, doc) || r.Seq >= prev || (q.Target != "" && r.Target != q.Target) {
						t.Errorf("after seq %d, payload %s; want %s", prev, raw, doc)
						return
					}
					prev = r.Seq
				}
				if q.Cursor = page.NextCursor; q.Cursor == "" {
					prev = math.MaxUint64
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()
	if st := b.Stats(); st.Compactions == 0 || st.Superseded == 0 {
		t.Errorf("store = %+v: compaction never dropped a frame under the readers", st)
	}
}

// TestAppendScanAppends: AppendScan extends what dst already holds,
// like append — earlier payloads keep their bytes when the frames
// buffer is regrown under them — and Scan is the same page in fresh
// storage.
func TestAppendScanAppends(t *testing.T) {
	b := openStore(t, Config{})
	for i := 0; i < 20; i++ {
		if err := b.Append(ctxb(), churn(i)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := b.AppendScan(ctxb(), ScanPage{}, Query{Limit: 3})
	if err != nil || len(first.Payloads) != 3 {
		t.Fatalf("first page = %d payloads (err %v)", len(first.Payloads), err)
	}
	kept := string(first.Payloads[0])
	both, err := b.AppendScan(ctxb(), first, Query{Limit: 4, Cursor: first.NextCursor})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := b.Scan(ctxb(), Query{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Payloads) != 7 || string(both.Payloads[0]) != kept || both.NextCursor != whole.NextCursor {
		t.Fatalf("appended page = %d payloads, cursor %q; want 7 and %q", len(both.Payloads), both.NextCursor, whole.NextCursor)
	}
	for i := range whole.Payloads {
		if !bytes.Equal(both.Payloads[i], whole.Payloads[i]) {
			t.Errorf("payload %d = %s, Scan has %s", i, both.Payloads[i], whole.Payloads[i])
		}
	}
}

// TestAppendScanRetriesAfterCompaction: a compaction that moves a
// page's segments after the index walk and before the read fails the
// read; the page is retried from the index, into the same storage, and
// comes back whole — no payload of the failed attempt is left in it.
func TestAppendScanRetriesAfterCompaction(t *testing.T) {
	s := segOpen(t, Config{SegmentBytes: 1024, CompactEvery: -1})
	for i := 0; i < 120; i++ {
		if err := s.Append(ctxb(), churn(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.Scan(ctxb(), Query{})
	if err != nil {
		t.Fatal(err)
	}
	walks := 0
	s.fail.pageRead = func() error {
		if walks++; walks == 1 {
			return s.Compact(ctxb())
		}
		return nil
	}
	prior := json.RawMessage(`{"kept":true}`)
	page, err := s.AppendScan(ctxb(), ScanPage{Payloads: []json.RawMessage{prior}, Frames: make([]byte, 0, 1<<16)}, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); walks != 2 || st.Compactions != 1 || st.Superseded == 0 {
		t.Fatalf("%d index walks, stats %+v; want a compaction that moved frames under the first walk and one retry", walks, st)
	}
	if len(page.Payloads) != 1+len(want.Payloads) || !bytes.Equal(page.Payloads[0], prior) {
		t.Fatalf("page = %d payloads after %s; want %q and the %d of the store", len(page.Payloads), page.Payloads[0], prior, len(want.Payloads))
	}
	for i, p := range want.Payloads {
		if !bytes.Equal(page.Payloads[1+i], p) {
			t.Fatalf("payload %d = %s, want %s", i, page.Payloads[1+i], p)
		}
	}
	if frames := len(want.Frames); len(page.Frames) != frames {
		t.Errorf("frames = %d bytes, want the page's %d", len(page.Frames), frames)
	}
}
