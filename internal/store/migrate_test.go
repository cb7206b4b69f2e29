package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// legacyLines renders records the way the removed JSONL engine wrote
// them: Seq assigned in append order from 1, one JSON document per line.
func legacyLines(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		line, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestMigration proves the one-shot JSONL→segmented migration preserves
// every record and every index: the migrated store answers exactly like
// a store freshly appended with the same records.
func TestMigration(t *testing.T) {
	base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]Record, 50)
	for i := range recs {
		r := rec("http://start.test/"+strconv.Itoa(i), "http://land.test/"+strconv.Itoa(i%20), "fp"+strconv.Itoa(i%2), "", i%2 == 0)
		r.ScoredAt = base.Add(time.Duration(i) * time.Hour)
		if i%4 == 0 {
			r.Target = "brand.com"
		}
		if i%3 == 0 {
			r.ModelVersion = "v1"
		} else {
			r.ModelVersion = "v2"
		}
		if i == 13 {
			r.Error = "fetch: connection refused"
		}
		recs[i] = r
	}
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	if err := os.WriteFile(path, legacyLines(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := openStore(t, Config{})
	for _, r := range recs {
		if err := ref.Append(ctxb(), r); err != nil {
			t.Fatal(err)
		}
	}

	// Opening the default backend over the JSONL file migrates it.
	b, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("Open (migrating): %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })
	if st, err := os.Stat(path); err != nil || !st.IsDir() {
		t.Fatalf("path after migration: %v (dir=%v), want segment directory", err, st != nil && st.IsDir())
	}
	if _, err := os.Stat(path + migrationBackupSuffix); err != nil {
		t.Fatalf("backup of original log missing: %v", err)
	}

	want := scanAll(t, ref, Query{}, 0)
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(scanAll(t, b, Query{}, 7))
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("migrated records differ:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
	// Every secondary index answers identically to the reference.
	checks := []Query{
		{Target: "brand.com"},
		{ModelVersion: "v1"},
		{URL: "http://land.test/3"},
		{URL: "http://start.test/3"},
		{Since: base.Add(24 * time.Hour), Until: base.Add(36 * time.Hour)},
		{PhishOnly: true},
	}
	for qi, q := range checks {
		wj, _ := json.Marshal(scanAll(t, ref, q, 0))
		gj, _ := json.Marshal(scanAll(t, b, q, 0))
		if string(wj) != string(gj) {
			t.Fatalf("query %d differs after migration:\nwant %s\ngot  %s", qi, wj, gj)
		}
	}

	// Reopening is a no-op migration: still a directory, same records.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.Len() != len(want) {
		t.Fatalf("Len after re-open = %d, want %d", b2.Len(), len(want))
	}
}

// TestMigrationLeavesSourceBytesIntact pins the backup promise: whatever
// the migration could not read — a torn final append, or everything
// after a corrupt line — is still in "<Path>.pre-migration.jsonl",
// which is the original file byte for byte, and the operator is told
// where reading stopped.
func TestMigrationLeavesSourceBytesIntact(t *testing.T) {
	good := func(n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = rec("http://a.test/"+strconv.Itoa(i), "http://a.test/"+strconv.Itoa(i), "fp", "", true)
		}
		return recs
	}
	three := legacyLines(t, good(3))
	line := bytes.SplitAfter(three, []byte("\n")) // three lines and an empty remainder
	cases := []struct {
		name   string
		log    []byte
		live   int // records before the first unreadable line
		offset int // where reading stops
	}{
		{"torn tail", append(bytes.Clone(three), `{"seq":99,"url":"http://torn`...), 3, len(three)},
		{"corrupt middle line", bytes.Join([][]byte{line[0], []byte("\x00\x00 not json\n"), line[2]}, nil), 1, len(line[0])},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "verdicts.jsonl")
			if err := os.WriteFile(path, tc.log, 0o644); err != nil {
				t.Fatal(err)
			}
			var logged bytes.Buffer
			b, err := Open(Config{Path: path, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
			if err != nil {
				t.Fatalf("Open (migrating): %v", err)
			}
			defer b.Close()
			if b.Len() != tc.live {
				t.Errorf("migrated Len = %d, want %d", b.Len(), tc.live)
			}
			backup, err := os.ReadFile(path + migrationBackupSuffix)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(backup, tc.log) {
				t.Errorf("backup is %d bytes, original was %d: migration rewrote its source", len(backup), len(tc.log))
			}
			want := fmt.Sprintf("offset=%d unread_bytes=%d", tc.offset, len(tc.log)-tc.offset)
			if out := logged.String(); !strings.Contains(out, "level=WARN") || !strings.Contains(out, want) {
				t.Errorf("log = %q, want a WARN carrying %q", out, want)
			}
		})
	}
}

// TestMigrationCrashStates walks the on-disk states a crash inside
// maybeMigrate can leave and the one it must never touch.
func TestMigrationCrashStates(t *testing.T) {
	recs := make([]Record, 5)
	for i := range recs {
		recs[i] = rec("http://c.test/"+strconv.Itoa(i), "http://c.test/"+strconv.Itoa(i), "fp", "", false)
	}
	// segDir leaves a cleanly closed segment directory holding recs.
	segDir := func(t *testing.T, dir string) {
		s := segOpen(t, Config{Path: dir})
		for _, r := range recs {
			if err := s.Append(ctxb(), r); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name       string
		arrange    func(t *testing.T, path string)
		wantBackup bool
	}{
		{"legacy file + stale side dir: rebuilt and installed", func(t *testing.T, path string) {
			if err := os.WriteFile(path, legacyLines(t, recs), 0o644); err != nil {
				t.Fatal(err)
			}
			// A crash mid-build: half a segment and no snapshot.
			if err := os.MkdirAll(path+migrationSideSuffix, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segName(path+migrationSideSuffix, 1), []byte("torn frame"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"path absent + finished side dir: installed", func(t *testing.T, path string) {
			segDir(t, path+migrationSideSuffix)
		}, false},
		{"segment directory present: no-op", func(t *testing.T, path string) {
			segDir(t, path)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "verdicts.jsonl")
			tc.arrange(t, path)
			b := segOpen(t, Config{Path: path})
			if b.Len() != len(recs) {
				t.Errorf("Len = %d, want %d", b.Len(), len(recs))
			}
			for _, r := range recs {
				if got, ok, err := b.Get(ctxb(), r.LandingURL); err != nil || !ok || got.URL != r.URL {
					t.Errorf("Get(%s) = %+v ok=%v err=%v", r.LandingURL, got, ok, err)
				}
			}
			if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
				t.Errorf("path is not a segment directory: %v", err)
			}
			if _, err := os.Stat(path + migrationSideSuffix); !os.IsNotExist(err) {
				t.Errorf("side directory still present (err %v)", err)
			}
			if _, err := os.Stat(path + migrationBackupSuffix); tc.wantBackup == os.IsNotExist(err) {
				t.Errorf("backup present = %v, want %v", !os.IsNotExist(err), tc.wantBackup)
			}
		})
	}
}

// FuzzLegacyRead feeds readLegacy arbitrary file bytes — the log is
// operator-supplied input. It must never panic or write the file, must
// stop on a line boundary, and must hand migration records it can
// replay as-is: strictly ascending Seq, one per key.
func FuzzLegacyRead(f *testing.F) {
	lines := legacyLines(f, []Record{
		rec("http://a.test/", "http://a.test/", "fp", "", true),
		rec("http://a.test/", "http://a.test/", "fp", "brand.com", true), // supersedes the first
		rec("http://b.test/", "http://b.test/", "fp", "", false),
	})
	f.Add(lines)
	f.Add(append(bytes.Clone(lines), `{"seq":99,"url":"http://torn`...))
	f.Add(append(bytes.Clone(lines), "not json\n"...))
	f.Add([]byte("\n\n{}\n"))
	// Out of order, repeated and zero sequence numbers.
	f.Add([]byte(`{"seq":2,"landing_url":"x"}` + "\n" + `{"seq":1,"landing_url":"y"}` + "\n"))
	f.Add([]byte(`{"seq":7,"landing_url":"x"}` + "\n" + `{"seq":7,"landing_url":"y"}` + "\n"))
	path := filepath.Join(f.TempDir(), "verdicts.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		live, read, err := readLegacy(path)
		if err != nil {
			t.Fatalf("readLegacy: %v", err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
			t.Fatalf("file changed under a read-only reader (err %v)", err)
		}
		if read < 0 || read > int64(len(data)) || (read > 0 && data[read-1] != '\n') {
			t.Fatalf("read = %d of %d bytes: not a line boundary", read, len(data))
		}
		keys := make(map[string]bool, len(live))
		var last uint64
		for _, r := range live {
			if r.Seq <= last {
				t.Fatalf("Seq %d after %d: not strictly ascending", r.Seq, last)
			}
			last = r.Seq
			if keys[r.key()] {
				t.Fatalf("key %q returned twice", r.key())
			}
			keys[r.key()] = true
		}
	})
}
