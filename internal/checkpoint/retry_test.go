package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faultinject"
)

// failWrites installs a durable.Hook that consults plan once per write
// attempt (at its "write" step) and fails the attempt when a fault fires.
func failWrites(t *testing.T, plan *faultinject.Plan) {
	t.Helper()
	durable.Hook = func(path, step string) error {
		if step != "write" {
			return nil
		}
		if f, ok := plan.Visit(faultinject.SiteDurableWrite); ok {
			return f.Err()
		}
		return nil
	}
	t.Cleanup(func() { durable.Hook = nil })
}

// stubSleep replaces the retry backoff sleep for the duration of a test and
// records the requested delays.
func stubSleep(t *testing.T) *[]time.Duration {
	t.Helper()
	var slept []time.Duration
	old := sleepFn
	sleepFn = func(d time.Duration) { slept = append(slept, d) }
	t.Cleanup(func() { sleepFn = old })
	return &slept
}

func TestWriteFileRetriesTransientErrors(t *testing.T) {
	slept := stubSleep(t)
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SiteDurableWrite, Mode: faultinject.ModeError, Times: 2,
	})
	failWrites(t, plan)

	var retries []int
	OnWriteRetry = func(path string, attempt int, err error) {
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("OnWriteRetry err = %v, want injected", err)
		}
		retries = append(retries, attempt)
	}
	defer func() { OnWriteRetry = nil }()

	path := filepath.Join(t.TempDir(), FileName(1))
	if err := WriteFile(path, sampleSnapshot()); err != nil {
		t.Fatalf("two transient failures should be absorbed: %v", err)
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Errorf("retried attempts = %v, want [1 2]", retries)
	}
	if len(*slept) != 2 {
		t.Errorf("slept %d times, want 2", len(*slept))
	}
	// The shared schedule (base 2ms, ±25% jitter) grows: attempt 1 in
	// [1.5ms, 2.5ms], attempt 2 in [3ms, 5ms].
	if s := *slept; len(s) == 2 {
		if s[0] < 1500*time.Microsecond || s[0] > 2500*time.Microsecond {
			t.Errorf("first backoff = %v, want in [1.5ms, 2.5ms]", s[0])
		}
		if s[1] < 3*time.Millisecond || s[1] > 5*time.Millisecond {
			t.Errorf("second backoff = %v, want in [3ms, 5ms]", s[1])
		}
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("snapshot unreadable after retried write: %v", err)
	}
}

func TestWriteFilePersistentErrorSurfaces(t *testing.T) {
	stubSleep(t)
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SiteDurableWrite, Mode: faultinject.ModeError, Forever: true,
	})
	failWrites(t, plan)

	path := filepath.Join(t.TempDir(), FileName(1))
	err := WriteFile(path, sampleSnapshot())
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected error after exhausting retries", err)
	}
	if got := plan.Visits(faultinject.SiteDurableWrite); got != writeAttempts {
		t.Errorf("write attempted %d times, want %d", got, writeAttempts)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed write left a file behind: %v", err)
	}
}

// TestLoadLatestMatchingSkipsMismatched the regression for resume wedging:
// a newer snapshot from a tweaked config must be skipped in favor of an
// older matching one, exactly like corrupt files already are.
func TestLoadLatestMatchingSkipsMismatched(t *testing.T) {
	dir := t.TempDir()
	want := sampleSnapshot()
	want.Iter = 10
	if err := WriteFile(filepath.Join(dir, FileName(10)), want); err != nil {
		t.Fatal(err)
	}
	tweaked := sampleSnapshot()
	tweaked.Iter = 20
	tweaked.Fingerprint.Workers = 99 // config tweak mid-directory
	if err := WriteFile(filepath.Join(dir, FileName(20)), tweaked); err != nil {
		t.Fatal(err)
	}

	fp := sampleSnapshot().Fingerprint
	s, path, err := LoadLatestMatching(dir, func(c *Snapshot) error {
		return fp.Match(c.Fingerprint)
	})
	if err != nil {
		t.Fatalf("LoadLatestMatching: %v", err)
	}
	if s.Iter != 10 || filepath.Base(path) != FileName(10) {
		t.Fatalf("loaded iter %d from %s, want the older matching snapshot (iter 10)", s.Iter, path)
	}

	// Nothing matching at all: ErrNoSnapshot.
	other := Fingerprint{Design: "other"}
	if _, _, err := LoadLatestMatching(dir, func(c *Snapshot) error {
		return other.Match(c.Fingerprint)
	}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}

	// A corrupt newest file is still skipped with a matcher installed.
	if err := os.WriteFile(filepath.Join(dir, FileName(30)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err = LoadLatestMatching(dir, func(c *Snapshot) error {
		return fp.Match(c.Fingerprint)
	})
	if err != nil || s.Iter != 10 {
		t.Fatalf("corrupt+mismatch scan: iter=%v err=%v, want 10/nil", s, err)
	}
}
