package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// migrationBackupSuffix is appended to a migrated legacy log's path.
const migrationBackupSuffix = ".pre-migration.jsonl"

// migrationSideSuffix names the side directory a migration builds in.
const migrationSideSuffix = ".migrating"

// maybeMigrate converts a legacy JSONL log at cfg.Path into a segmented
// store directory at the same path, one-shot; it is a no-op when the
// path already holds a directory (or nothing). Sequence numbers,
// timestamps and explanations are preserved verbatim, so queries answer
// identically before and after.
//
// The dance is crash-safe at every step: the segmented store is built
// in a side directory ("<Path>.migrating") while the legacy log is only
// read, never written; the log is then renamed to its backup name
// ("<Path>.pre-migration.jsonl"), byte-identical to what was found, and
// the side directory renamed into place. A crash before the first
// rename leaves the legacy log authoritative (a stale side directory is
// discarded and rebuilt on the next attempt); a crash between the
// renames leaves the path absent and the finished side directory
// present, which the next open completes.
func maybeMigrate(cfg Config) error {
	side := cfg.Path + migrationSideSuffix
	fi, err := os.Stat(cfg.Path)
	switch {
	case err == nil && !fi.Mode().IsRegular():
		return nil // already a segment directory
	case os.IsNotExist(err):
		// Resume a crash between the two renames: the side directory,
		// if present, is complete (the legacy log is renamed away only
		// after it is closed) — install it.
		if _, serr := os.Stat(side); serr == nil {
			return os.Rename(side, cfg.Path)
		}
		return nil // fresh store; nothing to migrate
	case err != nil:
		return err
	}

	recs, read, err := readLegacy(cfg.Path)
	if err != nil {
		return err
	}
	if unread := fi.Size() - read; unread > 0 {
		cfg.Logger.Warn("legacy verdict log not read to its end; the backup keeps the rest",
			"path", cfg.Path, "offset", read, "unread_bytes", unread, "backup", cfg.Path+migrationBackupSuffix)
	}

	if err := os.RemoveAll(side); err != nil {
		return err
	}
	dstCfg := cfg
	dstCfg.Path = side
	dstCfg.CompactEvery = -1         // nothing to supersede in a replay
	dstCfg.MaxExplainBytes = 1 << 30 // preserve stored evidence verbatim
	dst, err := openSegmented(dstCfg)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		dst.mu.Lock()
		err := dst.appendLocked(rec, true)
		dst.mu.Unlock()
		if err != nil {
			_ = dst.Close()
			return fmt.Errorf("replaying record seq %d: %w", rec.Seq, err)
		}
	}
	// Close seals durability and writes the index snapshot — the new
	// store opens via the fast-start path immediately.
	if err := dst.Close(); err != nil {
		return err
	}

	if err := os.Rename(cfg.Path, cfg.Path+migrationBackupSuffix); err != nil {
		return err
	}
	if err := os.Rename(side, cfg.Path); err != nil {
		return err
	}
	cfg.Logger.Info("migrated legacy verdict log to segmented layout",
		"path", cfg.Path, "records", len(recs), "backup", cfg.Path+migrationBackupSuffix)
	return nil
}

// readLegacy reads the live records out of a legacy verdict log — a
// single JSONL file, one Record per line, written in ascending Seq, a
// later line superseding an earlier one with the same key — without
// writing to it. Replay stops at the first line that engine could not
// have written whole: unterminated (a torn final append), unparsable,
// or with a Seq not above the line before it; nothing past such a line
// can be trusted. It returns the newest record per key, ascending by
// Seq, and the offset replay stopped at (the file size when every line
// was read).
func readLegacy(path string) (live []*Record, read int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	var recs []*Record // file order; a superseded record's slot is nil
	newest := make(map[string]int)
	var lastSeq uint64
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == io.EOF {
			break // any bytes in line are an unterminated tail
		}
		if rerr != nil {
			return nil, 0, fmt.Errorf("reading %s: %w", path, rerr)
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			rec := new(Record)
			if json.Unmarshal(trimmed, rec) != nil || rec.Seq <= lastSeq {
				break
			}
			lastSeq = rec.Seq
			if old, ok := newest[rec.key()]; ok {
				recs[old] = nil
			}
			newest[rec.key()] = len(recs)
			recs = append(recs, rec)
		}
		read += int64(len(line))
	}
	for _, rec := range recs {
		if rec != nil {
			live = append(live, rec)
		}
	}
	return live, read, nil
}
