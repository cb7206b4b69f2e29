package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"knowphish/internal/core"
)

// openStore opens a store on a fresh directory (or cfg.Path) with
// auto-close.
func openStore(t *testing.T, cfg Config) Backend {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "verdicts")
	}
	b, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

func rec(url, landing, fp, target string, phish bool) Record {
	return Record{
		URL:         url,
		LandingURL:  landing,
		Fingerprint: fp,
		Target:      target,
		Outcome:     core.Outcome{FinalPhish: phish, Score: 0.9},
		ScoredAt:    time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC),
	}
}

func TestSelectFilters(t *testing.T) {
	t.Run("segmented", func(t *testing.T) {
		s := openStore(t, Config{})
		base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 6; i++ {
			r := rec("http://u.test/"+string(rune('a'+i)), "http://u.test/"+string(rune('a'+i)), "fp", "", i%2 == 0)
			if i%2 == 0 {
				r.Target = "brand.com"
			}
			r.ScoredAt = base.Add(time.Duration(i) * time.Hour)
			if err := s.Append(ctxb(), r); err != nil {
				t.Fatal(err)
			}
		}
		sel := func(q Query) []Record {
			t.Helper()
			page, err := s.Scan(ctxb(), q)
			if err != nil {
				t.Fatalf("Scan(%+v): %v", q, err)
			}
			return decodePage(t, page)
		}
		if got := len(sel(Query{Target: "brand.com"})); got != 3 {
			t.Errorf("by target = %d, want 3", got)
		}
		if got := len(sel(Query{Since: base.Add(3 * time.Hour)})); got != 3 {
			t.Errorf("since +3h = %d, want 3", got)
		}
		if got := len(sel(Query{PhishOnly: true})); got != 3 {
			t.Errorf("phish only = %d, want 3", got)
		}
		if got := sel(Query{Limit: 2}); len(got) != 2 || got[0].Seq < got[1].Seq {
			t.Errorf("limit 2 newest-first violated: %+v", got)
		}
		if got := len(sel(Query{URL: "http://u.test/a"})); got != 1 {
			t.Errorf("by url = %d, want 1", got)
		}
		if got := len(sel(Query{})); got != 6 {
			t.Errorf("unfiltered = %d, want 6", got)
		}
	})
}

func TestOpenValidates(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("empty path: want error")
	}
	// Parent directories are created.
	path := filepath.Join(t.TempDir(), "deep", "nested", "verdicts")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("Open with nested path: %v", err)
	}
	_ = s.Close()
	// Appending to a closed store fails rather than panicking.
	if err := s.Append(ctxb(), Record{URL: "x", LandingURL: "x"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close = %v, want ErrClosed", err)
	}
}

// TestOpenRejectsFile: the store path names a directory. A file found
// there — a one-document-per-line verdict log from an older build, say
// — is refused and left as it was, never converted or moved aside. The
// refusal is a nil Backend: a caller that checks it against nil, as
// app.Start's unwind does, must see no store.
func TestOpenRejectsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	r := rec("http://a.test/", "http://a.test/", "fp", "", true)
	r.Seq = 1
	line, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append(line, '\n')
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := Open(Config{Path: path}); err == nil {
		_ = b.Close()
		t.Fatal("Open over a regular file succeeded")
	} else if b != nil {
		t.Errorf("Open failed with %v but returned a non-nil Backend %#v", err, b)
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the path", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, legacy) {
		t.Errorf("file at the store path changed: %q (err %v), want %q", got, err, legacy)
	}
	for _, side := range []string{path + ".migrating", path + ".pre-migration.jsonl"} {
		if _, err := os.Stat(side); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: stat err = %v, want not exist", side, err)
		}
	}
}

func TestSyncMode(t *testing.T) {
	s := openStore(t, Config{Sync: true})
	if err := s.Append(ctxb(), rec("http://s.test/", "http://s.test/", "fp", "", false)); err != nil {
		t.Fatalf("Append with Sync: %v", err)
	}
}
