package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FileExt is the extension of checkpoint files written by this package.
const FileExt = ".fpkc"

// AtomicWriteFile durably writes the bytes produced by write to path:
// a unique temp file in the same directory, fsync, close, atomic rename,
// then an fsync of the directory so the rename itself survives power loss.
// On any error the temp file is removed and path is left untouched — a
// previous checkpoint at a different path is never at risk.
func AtomicWriteFile(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if err := write(tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("ckpt: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: rename %s -> %s: %w", tmpName, path, err)
	}
	// Persist the rename: fsync the containing directory. Best-effort on
	// platforms where directories cannot be synced.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile parses the checkpoint file at path.
func ReadFile(path string) (*Dict, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read checkpoint: %w", err)
	}
	d, err := parse(b)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return d, nil
}

// RoundFileName returns the canonical file name for a checkpoint taken after
// completing round t (zero-padded so lexical order equals round order).
func RoundFileName(t int) string {
	return fmt.Sprintf("ckpt-%06d%s", t, FileExt)
}

// ParseRoundFileName extracts the round number from a base name RoundFileName
// wrote, or returns ok=false for any other file, a near miss such as
// "ckpt-1.fpkc" or "ckpt-+000001.fpkc" included.
func ParseRoundFileName(base string) (round int, ok bool) {
	if !strings.HasPrefix(base, "ckpt-") || !strings.HasSuffix(base, FileExt) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(base, "ckpt-"), FileExt)
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 || RoundFileName(n) != base {
		return 0, false
	}
	return n, true
}

// LatestValid scans dir for round checkpoints and returns the newest one
// that parses and passes its CRC, along with warnings for any newer files
// that were skipped as corrupt. It returns an error only when dir holds no
// valid checkpoint at all.
func LatestValid(dir string) (path string, d *Dict, warnings []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, nil, fmt.Errorf("ckpt: scan checkpoint dir: %w", err)
	}
	type cand struct {
		round int
		path  string
	}
	var cands []cand
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if r, ok := ParseRoundFileName(e.Name()); ok {
			cands = append(cands, cand{round: r, path: filepath.Join(dir, e.Name())})
		}
	}
	if len(cands) == 0 {
		return "", nil, nil, fmt.Errorf("ckpt: no checkpoint files (ckpt-NNNNNN%s) in %s", FileExt, dir)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].round > cands[j].round })
	for _, c := range cands {
		d, rerr := ReadFile(c.path)
		if rerr != nil {
			warnings = append(warnings, fmt.Sprintf("skipping corrupt checkpoint %s: %v", c.path, rerr))
			continue
		}
		return c.path, d, warnings, nil
	}
	return "", nil, warnings, fmt.Errorf("ckpt: all %d checkpoint files in %s are corrupt", len(cands), dir)
}
