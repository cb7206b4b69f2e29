package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// segOpen opens a segmented store on a fresh directory (or cfg.Path)
// with auto-close; crash tests open stores by hand so an abandoned
// instance never runs its orderly shutdown.
func segOpen(t *testing.T, cfg Config) *segStore {
	t.Helper()
	return openStore(t, cfg).(*segStore)
}

func ctxb() context.Context { return context.Background() }

// decodePage parses a page's payloads into records.
func decodePage(t testing.TB, page ScanPage) []Record {
	t.Helper()
	recs, err := page.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return recs
}

// scanAll drains a backend through cursor pages of the given size.
func scanAll(t *testing.T, b Backend, q Query, pageSize int) []Record {
	t.Helper()
	var out []Record
	q.Limit = pageSize
	for {
		page, err := b.Scan(ctxb(), q)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		out = append(out, decodePage(t, page)...)
		if page.NextCursor == "" {
			return out
		}
		q.Cursor = page.NextCursor
	}
}

func TestSegmentedAppendGetReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	// A small segment size forces several seals so reopen crosses
	// segment boundaries.
	s := segOpen(t, Config{Path: dir, SegmentBytes: 2048})
	for i := 0; i < 40; i++ {
		r := rec("http://lure.test/"+strconv.Itoa(i), "http://land.test/"+strconv.Itoa(i), "fp", "", i%2 == 0)
		if err := s.Append(ctxb(), r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	got, ok, err := s.Get(ctxb(), "http://land.test/7")
	if err != nil || !ok || got.URL != "http://lure.test/7" {
		t.Fatalf("Get by landing = %+v ok=%v err=%v", got, ok, err)
	}
	got2, ok, err := s.Get(ctxb(), "http://lure.test/7")
	if err != nil || !ok || got2.Seq != got.Seq {
		t.Fatalf("Get by starting URL = %+v ok=%v err=%v, want seq %d", got2, ok, err, got.Seq)
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2 (rolls happened)", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := segOpen(t, Config{Path: dir, SegmentBytes: 2048})
	if s2.Len() != 40 {
		t.Fatalf("Len after reopen = %d, want 40", s2.Len())
	}
	// Clean shutdown wrote a snapshot covering everything: the reopen
	// replayed no tail.
	if st := s2.Stats(); st.TailReplayed != 0 || st.SnapshotSeq == 0 {
		t.Fatalf("fast-start stats = %+v, want TailReplayed=0 and a snapshot watermark", st)
	}
	// Sequence numbering continues after reopen.
	if err := s2.Append(ctxb(), rec("http://new.test/", "http://new.test/", "fp", "", false)); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	r3, _, _ := s2.Get(ctxb(), "http://new.test/")
	if r3.Seq <= got.Seq {
		t.Fatalf("seq after reopen = %d, want > %d", r3.Seq, got.Seq)
	}
}

// TestSegmentedReplayWithoutSnapshot: a snapshot recovery cannot use —
// garbage, or one under the previous format's magic even though the
// rest of it would decode — is ignored, and the open rebuilds the
// identical view from the segments alone. Close then writes the current
// format, which the next open replays nothing past.
func TestSegmentedReplayWithoutSnapshot(t *testing.T) {
	for _, c := range []struct {
		name    string
		rewrite func(snap []byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("garbage") }},
		{"KPSNAP3", func(snap []byte) []byte { return append([]byte("KPSNAP3\n"), snap[len(snapshotMagic):]...) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "verdicts")
			cfg := Config{Path: dir, SegmentBytes: 2048}
			s := segOpen(t, cfg)
			for i := 0; i < 30; i++ {
				if err := s.Append(ctxb(), rec("http://u.test/"+strconv.Itoa(i), "http://u.test/"+strconv.Itoa(i), "fp", "", false)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, snapshotFile)
			snap, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.rewrite(snap), 0o644); err != nil {
				t.Fatal(err)
			}
			s2 := segOpen(t, cfg)
			if s2.Len() != 30 {
				t.Fatalf("Len after reopen = %d, want 30", s2.Len())
			}
			if st := s2.Stats(); st.TailReplayed != 30 || st.SnapshotSeq != 0 {
				t.Fatalf("stats %+v, want TailReplayed=30 (full replay) and no snapshot", st)
			}
			if _, ok, _ := s2.Get(ctxb(), "http://u.test/29"); !ok {
				t.Fatal("record lost on full replay")
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			if st := segOpen(t, cfg).Stats(); st.Records != 30 || st.TailReplayed != 0 {
				t.Fatalf("reopen after Close: stats %+v, want 30 records and nothing replayed", st)
			}
		})
	}
}

func TestSegmentedSupersedeAndCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	s := segOpen(t, Config{Path: dir, SegmentBytes: 1024, CompactEvery: -1})
	// Many generations of the same few pages: most frames end up
	// superseded across several sealed segments.
	for i := 0; i < 60; i++ {
		r := rec("http://lure.test/", "http://land.test/"+strconv.Itoa(i%5), "fp", "brand.com", true)
		r.ScoredAt = r.ScoredAt.Add(time.Duration(i) * time.Minute)
		if err := s.Append(ctxb(), r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5 live pages", s.Len())
	}
	before := s.Stats()
	if before.Segments < 3 {
		t.Fatalf("Segments before compact = %d, want several", before.Segments)
	}
	if err := s.Compact(ctxb()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Compactions != 1 || after.Superseded == 0 {
		t.Fatalf("stats after compact = %+v, want 1 compaction and superseded frames", after)
	}
	if after.Segments >= before.Segments {
		t.Fatalf("Segments after compact = %d, want < %d", after.Segments, before.Segments)
	}
	// Every live record still answers, from its moved location.
	for i := 0; i < 5; i++ {
		got, ok, err := s.Get(ctxb(), "http://land.test/"+strconv.Itoa(i))
		if err != nil || !ok {
			t.Fatalf("Get after compact: ok=%v err=%v", ok, err)
		}
		if got.ScoredAt.Before(rec("", "", "", "", false).ScoredAt.Add(55 * time.Minute)) {
			t.Fatalf("stale generation survived compaction: %+v", got)
		}
	}
	// And the compacted layout replays identically.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := segOpen(t, Config{Path: dir, SegmentBytes: 1024})
	if s2.Len() != 5 {
		t.Fatalf("Len after compacted reopen = %d, want 5", s2.Len())
	}
}

// TestReopenSupersedeScan reopens from a snapshot (a lazy index), then
// appends a record that supersedes a snapshot row whose landing URL has
// a single entry.
func TestReopenSupersedeScan(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := openSegmented(Config{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rec := Record{URL: "http://u" + string(rune('a'+i)) + ".test/", LandingURL: "http://u" + string(rune('a'+i)) + ".test/", Fingerprint: "fp", ScoredAt: time.Now()}
		if err := s.Append(ctx, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = openSegmented(Config{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Supersede ua's record: same landing URL + fingerprint.
	rec := Record{URL: "http://ua.test/", LandingURL: "http://ua.test/", Fingerprint: "fp", ScoredAt: time.Now()}
	if err := s.Append(ctx, rec); err != nil {
		t.Fatal(err)
	}
	page, err := s.Scan(ctx, Query{Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Payloads) != 5 {
		t.Fatalf("got %d records, want 5", len(page.Payloads))
	}
}

func TestSegmentedAutomaticCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "verdicts")
	s := segOpen(t, Config{Path: dir, SegmentBytes: 512, CompactEvery: 8})
	for i := 0; i < 64; i++ {
		if err := s.Append(ctxb(), rec("http://l.test/", "http://l.test/", "fp", "", true)); err != nil {
			t.Fatal(err)
		}
	}
	// Background compaction needs a moment; poll rather than sleep a
	// fixed interval.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no automatic compaction after 64 appends: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got, ok, _ := s.Get(ctxb(), "http://l.test/"); !ok || !got.Outcome.FinalPhish {
		t.Fatalf("live record wrong after auto compaction: %+v ok=%v", got, ok)
	}
}

// TestScanOrderDeterministic pins the ordering guarantee: every query
// path returns strictly descending Seq.
func TestScanOrderDeterministic(t *testing.T) {
	queries := []Query{
		{},
		{Target: "brand.com"},
		{URL: "http://shared.test/"},
		{PhishOnly: true},
		{Target: "brand.com", PhishOnly: true, Limit: 4},
	}
	b := openStore(t, Config{SegmentBytes: 1024})
	for i := 0; i < 30; i++ {
		r := rec("http://start.test/"+strconv.Itoa(i), "http://shared.test/", "fp"+strconv.Itoa(i%10), "", i%2 == 0)
		if i%3 == 0 {
			r.Target = "brand.com"
		}
		if err := b.Append(ctxb(), r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for qi, q := range queries {
		page, err := b.Scan(ctxb(), q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		recs := decodePage(t, page)
		for j := 1; j < len(recs); j++ {
			if recs[j-1].Seq <= recs[j].Seq {
				t.Fatalf("query %d: order not strictly descending at %d: %d then %d",
					qi, j, recs[j-1].Seq, recs[j].Seq)
			}
		}
		if len(recs) == 0 && !q.PhishOnly && q.Limit == 0 && q.Target == "" && q.URL == "" {
			t.Fatal("unfiltered scan returned nothing")
		}
	}
	// 10 generations carried the target but only the newest per
	// landing+fingerprint is live: i∈{21,24,27}.
	if page, err := b.Scan(ctxb(), Query{Target: "brand.com"}); err != nil || len(page.Payloads) != 3 {
		t.Fatalf("by target = %d records (err %v), want 3", len(page.Payloads), err)
	}
}

func TestScanCursorPagination(t *testing.T) {
	t.Run("segmented", func(t *testing.T) {
		b := openStore(t, Config{SegmentBytes: 1024})
		for i := 0; i < 23; i++ {
			r := rec("http://u.test/"+strconv.Itoa(i), "http://u.test/"+strconv.Itoa(i), "fp", "", i%2 == 0)
			if i%3 == 0 {
				r.Target = "brand.com"
			}
			if err := b.Append(ctxb(), r); err != nil {
				t.Fatal(err)
			}
		}
		// Page through everything: no duplicates, no gaps, newest
		// first end to end.
		all := scanAll(t, b, Query{}, 5)
		if len(all) != 23 {
			t.Fatalf("paged total = %d, want 23", len(all))
		}
		for j := 1; j < len(all); j++ {
			if all[j-1].Seq <= all[j].Seq {
				t.Fatalf("cross-page order violated at %d", j)
			}
		}
		// A filtered paged walk agrees with the one-shot query.
		filtered := scanAll(t, b, Query{Target: "brand.com"}, 3)
		oneShot, err := b.Scan(ctxb(), Query{Target: "brand.com"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(filtered, decodePage(t, oneShot)) {
			t.Fatalf("paged filter (%d) != one-shot (%d)", len(filtered), len(oneShot.Payloads))
		}
		// The final page reports exhaustion, not a dangling cursor.
		last, err := b.Scan(ctxb(), Query{Limit: 23})
		if err != nil {
			t.Fatal(err)
		}
		if last.NextCursor != "" {
			t.Fatalf("exact-limit page should exhaust, got cursor %q", last.NextCursor)
		}
		// Malformed cursors are rejected, not misread.
		if _, err := b.Scan(ctxb(), Query{Cursor: "not-a-cursor"}); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("bad cursor error = %v, want ErrBadCursor", err)
		}
		// Appends after a cursor was issued do not disturb the walk.
		mid, err := b.Scan(ctxb(), Query{Limit: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Append(ctxb(), rec("http://late.test/", "http://late.test/", "fp", "", false)); err != nil {
			t.Fatal(err)
		}
		rest, err := b.Scan(ctxb(), Query{Limit: 1000, Cursor: mid.NextCursor})
		if err != nil {
			t.Fatal(err)
		}
		if len(mid.Payloads)+len(rest.Payloads) != 23 {
			t.Fatalf("resumed walk saw %d records, want 23 (late append excluded)", len(mid.Payloads)+len(rest.Payloads))
		}
	})
}

// TestCrashRecoveryMatrix kills the store mid-append, mid-seal and
// mid-compaction and proves the sealed prefix never loses a verdict and
// the torn tail truncates cleanly.
func TestCrashRecoveryMatrix(t *testing.T) {
	open := func(t *testing.T, dir string) *segStore {
		b, err := Open(Config{Path: dir, SegmentBytes: 1024, CompactEvery: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return b.(*segStore)
	}
	fill := func(t *testing.T, s *segStore, n int) {
		for i := 0; i < n; i++ {
			r := rec("http://lure.test/"+strconv.Itoa(i), "http://land.test/"+strconv.Itoa(i%7), "fp"+strconv.Itoa(i%3), "", i%2 == 0)
			if err := s.Append(ctxb(), r); err != nil {
				t.Fatalf("Append %d: %v", i, err)
			}
		}
	}
	verify := func(t *testing.T, dir string, wantLive int) {
		t.Helper()
		s := open(t, dir)
		defer s.Close()
		if s.Len() != wantLive {
			t.Fatalf("Len after recovery = %d, want %d", s.Len(), wantLive)
		}
		all := scanAll(t, s, Query{}, 9)
		if len(all) != wantLive {
			t.Fatalf("scan after recovery = %d records, want %d", len(all), wantLive)
		}
		seen := map[string]bool{}
		for _, r := range all {
			k := r.LandingURL + "\x00" + r.Fingerprint
			if seen[k] {
				t.Fatalf("duplicate live record after recovery: %q", k)
			}
			seen[k] = true
		}
		// Still appendable after every crash shape.
		if err := s.Append(ctxb(), rec("http://post.test/", "http://post.test/", "fp", "", false)); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
	}
	// 40 appends over 7 landings × 3 fingerprints → 21 live keys.
	const liveKeys = 21

	t.Run("mid-append", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "v")
		s := open(t, dir)
		fill(t, s, 40)
		s.mu.Lock()
		activeID, goodSize := s.activeID, s.activeOff
		s.mu.Unlock()
		// Abandon without Close (no snapshot, no final fsync), then
		// tear the active segment mid-frame: a plausible header
		// followed by a short, CRC-less payload.
		torn := []byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}
		f, err := os.OpenFile(segName(dir, activeID), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()
		verify(t, dir, liveKeys)
		if fi, err := os.Stat(segName(dir, activeID)); err == nil && fi.Size() > goodSize {
			// Recovery truncated the torn bytes... unless a post-crash
			// append from verify() reused the segment, which starts at
			// the truncated boundary. Either way no torn bytes remain:
			// reopening once more must still parse cleanly.
			b, err := Open(Config{Path: dir, SegmentBytes: 1024})
			if err != nil {
				t.Fatalf("re-reopen after truncation: %v", err)
			}
			b.Close()
		}
	})

	t.Run("mid-seal", func(t *testing.T) {
		for _, point := range []string{"before-sync", "before-sidecar"} {
			t.Run(point, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "v")
				s := open(t, dir)
				fill(t, s, 40)
				boom := errors.New("injected crash")
				if point == "before-sync" {
					s.fail.sealSync = func() error { return boom }
				} else {
					s.fail.sealSidecar = func() error { return boom }
				}
				// Append until a seal is attempted and fails.
				var sawErr bool
				for i := 0; i < 200 && !sawErr; i++ {
					r := rec("http://roll.test/"+strconv.Itoa(i), "http://roll.test/"+strconv.Itoa(i), "fproll", "", false)
					if err := s.Append(ctxb(), r); err != nil {
						if !errors.Is(err, boom) {
							t.Fatalf("unexpected append error: %v", err)
						}
						sawErr = true
					}
				}
				if !sawErr {
					t.Fatal("seal failpoint never hit")
				}
				// Crash here (no Close). Every append that returned nil
				// must survive; count them from the index of the dying
				// store.
				wantLive := s.Len()
				verify(t, dir, wantLive)
			})
		}
	})

	t.Run("mid-compaction", func(t *testing.T) {
		for _, point := range []string{"rename", "install", "delete"} {
			t.Run(point, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "v")
				s := open(t, dir)
				fill(t, s, 40)
				boom := errors.New("injected crash")
				switch point {
				case "rename":
					s.fail.compactRename = func() error { return boom }
				case "install":
					s.fail.compactInstall = func() error { return boom }
				case "delete":
					s.fail.compactDelete = func() error { return boom }
				}
				if err := s.Compact(ctxb()); !errors.Is(err, boom) {
					t.Fatalf("Compact error = %v, want injected crash", err)
				}
				verify(t, dir, liveKeys)
			})
		}
	})
}

// crashAfterSnapshotSeals builds the crash image that replay's one
// resume point serves. A compaction writes a snapshot recording the
// active segment's offset; appends carry on, without Close, until that
// segment has sealed, and then until `later` more have, and a copy of
// the directory is taken. It returns the copy, the snapshot's active
// state and watermark, every live record of the dying store (newest
// first), and how many frames were appended after the snapshot.
func crashAfterSnapshotSeals(t *testing.T, later int) (copyDir string, act activeState, watermark uint64, live []Record, tail int) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "v")
	s := segOpen(t, Config{Path: dir, SegmentBytes: 2048, CompactEvery: -1})
	// Superseded frames in sealed segments give the compaction victims.
	for i := 0; i < 40; i++ {
		r := rec("http://lure.test/"+strconv.Itoa(i), "http://land.test/"+strconv.Itoa(i%7), "fp"+strconv.Itoa(i%3), "", i%2 == 0)
		if err := s.Append(ctxb(), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(ctxb()); err != nil {
		t.Fatal(err)
	}
	ix, act, ok := loadSnapshot(dir)
	if !ok || act.id == 0 || act.off == 0 {
		t.Fatalf("compaction snapshot: ok=%v, active state %+v; want a part-filled active segment", ok, act)
	}
	watermark = ix.nextSeq - 1
	for seals := 0; seals <= later; tail++ {
		id := s.activeID
		r := rec("http://tail.test/"+strconv.Itoa(tail), "http://tail.test/"+strconv.Itoa(tail), "fp", "", tail%2 == 0)
		if err := s.Append(ctxb(), r); err != nil {
			t.Fatal(err)
		}
		if s.activeID != id {
			seals++
		}
	}
	if sc := s.sealed[act.id]; sc == nil || sc.MaxSeq <= watermark {
		t.Fatalf("segment %d: sidecar %+v, want it sealed with frames past watermark %d", act.id, sc, watermark)
	}
	copyDir = filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(copyDir, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return copyDir, act, watermark, scanAll(t, s, Query{}, 50), tail
}

// TestRecoverResumesAtSnapshotOffset reopens a store that crashed after
// the segment its snapshot called active had sealed: that sealed
// segment straddles the watermark, and replay resumes in it at the
// snapshot's offset. The reopen recovers every record and replays
// exactly the frames appended after the snapshot. Zeroing everything
// below the offset in a second copy proves where replay starts: the
// open still indexes every later frame.
func TestRecoverResumesAtSnapshotOffset(t *testing.T) {
	dir, act, watermark, live, tail := crashAfterSnapshotSeals(t, 0)
	zeroed := filepath.Join(t.TempDir(), "zeroed")
	if err := os.CopyFS(zeroed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segName(zeroed, act.id), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, act.off), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := segOpen(t, Config{Path: dir, SegmentBytes: 2048, CompactEvery: -1})
	if st := s.Stats(); st.TailReplayed != int64(tail) || st.SnapshotSeq != watermark {
		t.Fatalf("reopen stats %+v: want %d frames replayed past watermark %d", st, tail, watermark)
	}
	if got := scanAll(t, s, Query{}, 50); !reflect.DeepEqual(got, live) {
		t.Fatalf("reopen holds %d records, the crashed store %d (or they differ)", len(got), len(live))
	}
	z := segOpen(t, Config{Path: zeroed, SegmentBytes: 2048, CompactEvery: -1})
	if z.Len() != len(live) || z.Stats().TailReplayed != int64(tail) {
		t.Fatalf("zeroed prefix: Len %d, stats %+v; want %d live and %d replayed", z.Len(), z.Stats(), len(live), tail)
	}
	for _, r := range live {
		if r.Seq <= watermark {
			continue // its frame was zeroed, or lies in a segment the snapshot covers
		}
		got, ok, err := z.Get(ctxb(), r.URL)
		if err != nil || !ok || got.Seq != r.Seq {
			t.Fatalf("record %d past the watermark: seq %d, ok=%v, err %v", r.Seq, got.Seq, ok, err)
		}
	}
}

// TestRecoverReplaysLaterSegmentsWhole crashes one whole sealed segment
// further on: a segment sealed wholly past the watermark is replayed
// from 0, so none of its frames below the snapshot's offset is lost.
func TestRecoverReplaysLaterSegmentsWhole(t *testing.T) {
	dir, act, watermark, live, tail := crashAfterSnapshotSeals(t, 1)
	s := segOpen(t, Config{Path: dir, SegmentBytes: 2048, CompactEvery: -1})
	var later *sidecar
	for id, sc := range s.sealed {
		if id > act.id && sc.MaxSeq > watermark {
			later = sc
		}
	}
	if later == nil || later.Bytes <= act.off {
		t.Fatalf("no sealed segment past segment %d holds frames below offset %d", act.id, act.off)
	}
	if st := s.Stats(); st.TailReplayed != int64(tail) {
		t.Fatalf("reopen stats %+v: want %d frames replayed", st, tail)
	}
	if got := scanAll(t, s, Query{}, 50); !reflect.DeepEqual(got, live) {
		t.Fatalf("reopen holds %d records, the crashed store %d (or they differ)", len(got), len(live))
	}
}

// TestCompactionNeverBlocksAppends parks a compaction mid-flight (after
// its outputs are written, before the index flip — the point where a
// blocking design would hold the store lock) and asserts appends keep
// completing promptly. A reader walks the store by cursor beside it
// all — before the flip, across it, and after the victims are unlinked
// — and must only ever see whole pages in strictly descending seq. Run
// under -race this also proves the phases share state safely.
func TestCompactionNeverBlocksAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "v")
	b, err := Open(Config{Path: dir, SegmentBytes: 1024, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := b.(*segStore)
	defer s.Close()
	for i := 0; i < 60; i++ {
		if err := s.Append(ctxb(), rec("http://p.test/", "http://land.test/"+strconv.Itoa(i%4), "fp", "", true)); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	s.fail.compactInstall = func() error {
		close(parked)
		<-release
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- s.Compact(ctxb()) }()
	<-parked
	stopWalks := make(chan struct{})
	walks := make(chan error, 1)
	go func() { walks <- walkUntil(s, 7, stopWalks) }()

	// The compaction is live and parked. Appends must not queue behind
	// it: each one is a lock-hop plus a buffered write, so even a slow
	// CI machine finishes far inside the bound.
	const bound = 1 * time.Second
	var worst time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		if err := s.Append(ctxb(), rec("http://during.test/"+strconv.Itoa(i), "http://during.test/"+strconv.Itoa(i), "fp", "", false)); err != nil {
			t.Fatalf("Append during compaction: %v", err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	close(stopWalks)
	if err := <-walks; err != nil {
		t.Fatalf("cursor walk beside appends and compaction: %v", err)
	}
	if worst > bound {
		t.Fatalf("append latency during compaction = %v, want < %v", worst, bound)
	}
	if s.Len() != 4+50 {
		t.Fatalf("Len = %d, want 54", s.Len())
	}
	if st := s.Stats(); st.Compactions != 1 || st.Superseded == 0 {
		t.Fatalf("stats = %+v, want a completed compaction", st)
	}
}

// walkUntil walks b by cursor, pageSize rows at a time, again and again
// until stop closes, then once more (so one walk always runs against
// the final state). Every page must decode whole, be full unless it is
// the last, and continue the walk's strictly descending seq.
func walkUntil(b Backend, pageSize int, stop <-chan struct{}) error {
	for last := false; ; {
		q := Query{Limit: pageSize}
		prev := uint64(math.MaxUint64)
		for {
			page, err := b.Scan(ctxb(), q)
			if err != nil {
				return err
			}
			recs, err := page.Decode()
			if err != nil {
				return err
			}
			if page.NextCursor != "" && len(recs) != pageSize {
				return fmt.Errorf("short page of %d rows with a cursor", len(recs))
			}
			for _, r := range recs {
				if r.Seq >= prev {
					return fmt.Errorf("seq %d after %d: not strictly descending", r.Seq, prev)
				}
				prev = r.Seq
			}
			if page.NextCursor == "" {
				break
			}
			q.Cursor = page.NextCursor
		}
		if last {
			return nil
		}
		select {
		case <-stop:
			last = true
		default:
		}
	}
}

func TestCursorCodec(t *testing.T) {
	for _, seq := range []uint64{0, 1, 42, 1 << 40} {
		seqOut, ok, err := parseCursor(encodeCursor(seq))
		if err != nil || !ok || seqOut != seq {
			t.Fatalf("roundtrip %d: %d %v %v", seq, seqOut, ok, err)
		}
	}
	if _, ok, err := parseCursor(""); err != nil || ok {
		t.Fatal("empty cursor must mean no cursor")
	}
	for _, bad := range []string{"zzz", "s1-", "s1-!!!", "s2-10"} {
		if _, _, err := parseCursor(bad); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("parseCursor(%q) = %v, want ErrBadCursor", bad, err)
		}
	}
}

func TestSnapshotCodec(t *testing.T) {
	ix := newMemIndex()
	a := rec("http://a.test/", "http://a.test/", "fp1", "", true)
	a.Seq, a.ScoredAt = 1, time.Unix(0, 12345)
	b := rec("http://s.test/", "http://b.test/", "", "brand.com", false)
	b.Seq, b.ScoredAt = 9, time.Unix(0, -1)
	ix.insert(&a, frameLoc{1, 0, 100})
	ix.insert(&b, frameLoc{2, 4096, 220})
	act := activeState{id: 3, off: 8192, meta: segMeta{count: 7, maxSeq: 9}}
	data := encodeSnapshot(ix, act)
	got, actOut, err := decodeSnapshot(data)
	if err != nil || got.nextSeq != 10 {
		t.Fatalf("decode: %v nextSeq=%d", err, got.nextSeq)
	}
	if !reflect.DeepEqual(actOut, act) {
		t.Fatalf("active state differs: %+v vs %+v", actOut, act)
	}
	if rows, want := liveRows(got), liveRows(ix); len(rows) != 2 || !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows differ: %+v vs %+v", rows, want)
	}
	// Any corruption is detected, never half-loaded.
	for i := 0; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
	if _, _, err := decodeSnapshot(data[:len(data)-2]); err == nil {
		t.Fatal("truncated snapshot went undetected")
	}
}

// TestStoreStress is the nightly 100k round-trip: append (with
// supersede churn), compact concurrently, then reopen and verify twice:
// once a copy of the directory taken without Close, after the segment
// the snapshot called active has sealed (replay resumes inside it), and
// once after a clean Close. Gated behind STORE_STRESS=1 because it
// moves real data volumes.
func TestStoreStress(t *testing.T) {
	if os.Getenv("STORE_STRESS") == "" {
		t.Skip("set STORE_STRESS=1 (STORE_STRESS_N to size) to run")
	}
	n := 100_000
	if v := os.Getenv("STORE_STRESS_N"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p > 0 {
			n = p
		}
	}
	keys := n / 4 // 4 generations per page on average
	churnRec := func(i int) Record {
		k := i % keys
		r := rec("http://lure.test/"+strconv.Itoa(i), "http://land.test/"+strconv.Itoa(k), "fp", "", i%2 == 0)
		if k%5 == 0 {
			r.Target = "brand" + strconv.Itoa(k%17) + ".com"
		}
		return r
	}
	// verify holds a reopened store to the first total churn records:
	// every page's newest generation survived, and a paged scan reads
	// exactly one record a page.
	verify := func(t *testing.T, b Backend, total int) {
		t.Helper()
		if b.Len() != keys {
			t.Fatalf("Len after reopen = %d, want %d", b.Len(), keys)
		}
		for k := 0; k < keys; k += max(1, keys/100) {
			got, ok, err := b.Get(ctxb(), "http://land.test/"+strconv.Itoa(k))
			if err != nil || !ok {
				t.Fatalf("Get key %d: ok=%v err=%v", k, ok, err)
			}
			newest := k + (total-1-k)/keys*keys
			if wantStart := "http://lure.test/" + strconv.Itoa(newest); got.URL != wantStart {
				t.Fatalf("key %d: newest generation = %q, want %q", k, got.URL, wantStart)
			}
		}
		cnt := 0
		q := Query{Limit: 1000}
		for {
			page, err := b.Scan(ctxb(), q)
			if err != nil {
				t.Fatal(err)
			}
			cnt += len(page.Payloads)
			if page.NextCursor == "" {
				break
			}
			q.Cursor = page.NextCursor
		}
		if cnt != keys {
			t.Fatalf("full paged scan = %d, want %d", cnt, keys)
		}
	}

	dir := filepath.Join(t.TempDir(), "stress")
	b, err := Open(Config{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := b.Append(ctxb(), churnRec(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	t.Logf("appended %d records in %v", n, time.Since(start))
	if err := b.Compact(ctxb()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if b.Len() != keys {
		t.Fatalf("Len after churn = %d, want %d", b.Len(), keys)
	}

	// Crash leg. With compaction held off, write a snapshot as
	// compaction does (it records the active segment's offset) and
	// append further generations until that segment seals; a periodic
	// snapshot at that seal would record no active segment, so none is
	// due. Then reopen a copy of the directory, as a crash leaves it.
	s := b.(*segStore)
	s.compactMu.Lock()
	s.mu.Lock()
	data, wm := s.encodeSnapshotLocked()
	act := s.activeID
	s.sinceSnap = 0
	s.mu.Unlock()
	s.persistSnapshot(data, wm)
	total := n
	for ; s.sealed[act] == nil; total++ {
		if err := b.Append(ctxb(), churnRec(total)); err != nil {
			t.Fatalf("Append %d: %v", total, err)
		}
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	s.compactMu.Unlock()
	start = time.Now()
	c, err := Open(Config{Path: crashed})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	t.Logf("reopened a crash copy %d appends past its snapshot in %v (stats %+v)", total-n, time.Since(start), c.Stats())
	if st := c.Stats(); st.TailReplayed != int64(total-n) {
		t.Fatalf("crash reopen replayed %d frames, want the %d past the snapshot", st.TailReplayed, total-n)
	}
	verify(t, c, total)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	b2, err := Open(Config{Path: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Logf("reopened %d live records in %v (stats %+v)", b2.Len(), time.Since(start), b2.Stats())
	defer b2.Close()
	verify(t, b2, total)
}
