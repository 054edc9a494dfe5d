// Package durable is the one way this repository replaces a file so that the
// new contents survive a crash or a power cut. Checkpoints, the placerd job
// store, the result cache and the coordinator journal all write through
// WriteFile.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// tempPrefix starts every temp file name, so IsTemp can spot crash leftovers.
const tempPrefix = ".tmp-"

// Hook, when non-nil, is consulted before each step of every WriteFile —
// "write", "sync", "rename", then "dirsync" — and a non-nil return fails that
// step with the error, as if the system call had. It is a build-tag-free
// fault-injection seam for failing-disk tests: production code pays one nil
// check per step and never sets it.
var Hook func(path, step string) error

// IsTemp reports whether a directory entry name is a WriteFile temp file.
func IsTemp(name string) bool { return strings.HasPrefix(name, tempPrefix) }

// WriteFile atomically and durably replaces path with data (mode 0600): it
// writes a temp file in path's directory, fsyncs and closes it, renames it
// over path, and fsyncs the directory so the rename survives power loss. An
// error before the rename removes the temp file and leaves path untouched;
// a directory fsync error is returned with the new contents in place.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	err = step(path, "write", func() error {
		_, err := tmp.Write(data)
		return err
	})
	if err == nil {
		err = step(path, "sync", tmp.Sync)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = step(path, "rename", func() error { return os.Rename(tmp.Name(), path) })
	}
	if err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup; err is what the caller needs
		return fmt.Errorf("durable: %w", err)
	}
	if err := step(path, "dirsync", func() error { return syncDir(dir) }); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// step runs one stage of a write unless Hook fails it first.
func step(path, name string, do func() error) error {
	if h := Hook; h != nil {
		if err := h(path, name); err != nil {
			return err
		}
	}
	return do()
}

// syncDir fsyncs a directory, making the entries renamed into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
