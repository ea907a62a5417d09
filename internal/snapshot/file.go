package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteRaw lands encoded container bytes at path crash-safely: the
// bytes go to a temp file in the same directory, are fsynced, renamed
// over path, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the previous snapshot or
// the complete new one — never a torn file.
func WriteRaw(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: fsync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: rename into place: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is advisory on some filesystems; a failure
		// here does not un-write the snapshot.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
