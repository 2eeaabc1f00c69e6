// Package atomicfile publishes a file so that readers — and a process
// restarted after a crash — see either its previous content or the new
// content in full, never a partial write. It is the one publish path of the
// job store's snapshot (internal/serve/store) and the corpus registry's
// snapshots and CURRENT pointer (internal/registry); each keeps its own
// on-disk framing.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Write publishes dir/name with the temp + fsync + rename + directory-fsync
// idiom: write streams the content into a temp file in dir (unbuffered, so
// callers hand it few, large writes), the file is fsynced before the rename
// so the rename never publishes a hollow file, and dir is fsynced after it,
// because under POSIX the rename itself is durable only once its directory
// entry is. When write or any step fails, the temp file is removed and
// dir/name is left untouched.
func Write(dir, name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("syncing temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("closing temp file: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("renaming into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening directory for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("syncing directory: %w", err)
	}
	return d.Close()
}
