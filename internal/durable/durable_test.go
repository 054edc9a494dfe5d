package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/faultinject"
)

// setHook installs h as the package Hook for the duration of the test.
func setHook(t *testing.T, h func(path, step string) error) {
	t.Helper()
	Hook = h
	t.Cleanup(func() { Hook = nil })
}

// dirNames lists the entry names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestWriteFileStepOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	var steps []string
	setHook(t, func(p, step string) error {
		if p != path {
			t.Errorf("hook path = %q, want %q", p, path)
		}
		steps = append(steps, step)
		return nil
	})
	if err := WriteFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"write", "sync", "rename", "dirsync"}; !reflect.DeepEqual(steps, want) {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"state"}) {
		t.Fatalf("directory holds %v, want only the destination", names)
	}
}

// TestWriteFileFailingDisk injects one failure at each step of a write over
// an existing file. Before the rename the destination must keep its old
// bytes; after it (a failed directory fsync) the new bytes are in place but
// the error still surfaces. Either way no temp file may remain.
func TestWriteFileFailingDisk(t *testing.T) {
	cases := []struct {
		name  string
		step  string
		cause error
		want  string // destination contents after the failed write
	}{
		{"short write", "write", io.ErrShortWrite, "old"},
		{"disk full", "write", syscall.ENOSPC, "old"},
		{"fsync error", "sync", syscall.EIO, "old"},
		{"rename error", "rename", syscall.EROFS, "old"},
		{"dir fsync error", "dirsync", syscall.EIO, "new"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state")
			if err := WriteFile(path, []byte("old")); err != nil {
				t.Fatal(err)
			}
			plan := faultinject.NewPlan(faultinject.Fault{
				Site: faultinject.SiteDurableWrite, Mode: faultinject.ModeError,
			})
			setHook(t, func(p, step string) error {
				if step != tc.step {
					return nil
				}
				if f, ok := plan.Visit(faultinject.SiteDurableWrite); ok {
					return fmt.Errorf("%w: %w", tc.cause, f.Err())
				}
				return nil
			})
			err := WriteFile(path, []byte("new"))
			if !errors.Is(err, faultinject.ErrInjected) || !errors.Is(err, tc.cause) {
				t.Fatalf("err = %v, want the injected %v", err, tc.cause)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.want {
				t.Errorf("destination holds %q, want %q", got, tc.want)
			}
			if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"state"}) {
				t.Errorf("directory holds %v, want only the destination", names)
			}
		})
	}
}

// TestWriteFileRealRenameFailureCleansUp: without the hook, a rename the
// kernel refuses (the destination is a non-empty directory) must still
// remove the temp file.
func TestWriteFileRealRenameFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new")); err == nil {
		t.Fatal("renaming over a non-empty directory succeeded")
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"state"}) {
		t.Fatalf("directory holds %v, want only the destination", names)
	}
}

func TestIsTempMatchesWriteFileTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	var temp string
	setHook(t, func(p, step string) error {
		if step == "rename" {
			names := dirNames(t, dir)
			if len(names) == 1 {
				temp = names[0]
			}
		}
		return nil
	})
	if err := WriteFile(path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if temp == "" || !IsTemp(temp) {
		t.Fatalf("temp file %q not recognized by IsTemp", temp)
	}
	if IsTemp("state") {
		t.Fatal("IsTemp matched the destination name")
	}
}
