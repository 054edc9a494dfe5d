package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/durable"
	"repro/internal/faultinject"
)

// durableSpec is synthSpec pinned to one worker: bit-exact resume only holds
// at a fixed worker count, and the recovery test compares HPWL across boots.
func durableSpec(maxIters int) JobSpec {
	s := synthSpec(maxIters)
	s.Placer.Workers = 1
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Root() != dir {
		t.Errorf("Root() = %q, want %q", s.Root(), dir)
	}

	spec := durableSpec(10)
	status := PersistedStatus{
		State:       StateRunning,
		Design:      "synth",
		Model:       "WA",
		SubmittedAt: time.Now(),
		Resumes:     2,
	}
	if err := s.SaveSpec("job-000007", spec); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveStatus("job-000007", status); err != nil {
		t.Fatal(err)
	}

	jobs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("Load returned %d jobs, want 1", len(jobs))
	}
	pj := jobs[0]
	if pj.ID != "job-000007" || pj.Status.State != StateRunning || pj.Status.Resumes != 2 {
		t.Errorf("loaded job = %+v", pj)
	}
	if pj.Spec.Placer.MaxIters != 10 || pj.Spec.Placer.Workers != 1 {
		t.Errorf("loaded spec = %+v", pj.Spec)
	}
	if got := s.MaxSeq(); got != 7 {
		t.Errorf("MaxSeq = %d, want 7", got)
	}

	if _, err := s.LatestSnapshot("job-000007"); !errors.Is(err, checkpoint.ErrNoSnapshot) {
		t.Errorf("LatestSnapshot without checkpoints: err = %v, want ErrNoSnapshot", err)
	}

	if err := s.Delete("job-000007"); err != nil {
		t.Fatal(err)
	}
	jobs, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("after Delete, Load returned %d jobs", len(jobs))
	}
}

// TestStoreLoadSkipsCorruptRecords recovery must proceed past a job whose
// spec or status file is damaged.
func TestStoreLoadSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSpec("job-000001", durableSpec(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveStatus("job-000001", PersistedStatus{State: StateDone}); err != nil {
		t.Fatal(err)
	}
	// job-000002 has a spec but a mangled status file.
	if err := s.SaveSpec("job-000002", durableSpec(5)); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFile(filepath.Join(s.jobDir("job-000002"), "status.json"), "not a status"); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "job-000001" {
		t.Errorf("Load = %+v, want only job-000001", jobs)
	}
	// The damaged directory still counts for ID allocation.
	if got := s.MaxSeq(); got != 2 {
		t.Errorf("MaxSeq = %d, want 2", got)
	}
}

// TestJobDoneWhileStatusWritesFail: status persistence is best-effort, so a
// disk that fails every status.json write must not stop a job from running
// to done.
func TestJobDoneWhileStatusWritesFail(t *testing.T) {
	dir := t.TempDir()
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SiteDurableWrite, Mode: faultinject.ModeError, Forever: true,
	})
	durable.Hook = func(path, step string) error {
		if !strings.HasPrefix(path, dir) || filepath.Base(path) != "status.json" || step != "write" {
			return nil
		}
		if f, ok := plan.Visit(faultinject.SiteDurableWrite); ok {
			return fmt.Errorf("%w: %w", syscall.ENOSPC, f.Err())
		}
		return nil
	}
	// Registered before the manager so it runs after the manager's shutdown.
	t.Cleanup(func() { durable.Hook = nil })
	m := newDurableManager(t, dir, 1)

	v, err := m.Submit(durableSpec(20))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, v.ID, StateDone)
	if done.Result == nil {
		t.Fatal("done job carries no result")
	}
	if plan.Fired(faultinject.SiteDurableWrite) == 0 {
		t.Fatal("no status write was attempted")
	}
	if _, err := os.Stat(filepath.Join(m.store.jobDir(v.ID), "status.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("status.json exists despite every write failing: %v", err)
	}
}

// TestManagerRecoversInterruptedJob is the daemon-level kill-and-resume test:
// a job interrupted by a hard shutdown must be persisted as interrupted,
// recovered by the next manager on the same data dir, resumed from its
// snapshot, and finish with the same HPWL as a never-interrupted run.
func TestManagerRecoversInterruptedJob(t *testing.T) {
	const iters = 300
	dataDir := t.TempDir()

	// Reference: the same spec run to completion without interruption.
	ref := newTestManager(t, Config{Workers: 1})
	rv, err := ref.Submit(durableSpec(iters))
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitState(t, ref, rv.ID, StateDone)

	// Boot A: run the job partway, then shut down with an expired budget so
	// the drain cancels it mid-flight.
	mA, err := OpenManager(Config{Workers: 1, DataDir: dataDir, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mA.Submit(durableSpec(iters))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		jv, err := mA.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.Progress != nil && jv.Progress.Iteration >= 20 {
			break
		}
		if jv.State.Terminal() {
			t.Fatalf("job finished before it could be interrupted: %+v", jv)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached iteration 20")
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now())
	defer cancel()
	if err := mA.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (drain cancel)", err)
	}
	if got := mA.Telemetry().JobsInterrupted.Value(); got != 1 {
		t.Errorf("boot A JobsInterrupted = %d, want 1", got)
	}

	// The store must show the job as interrupted with a snapshot behind it.
	store, err := OpenStore(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	persisted, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != 1 || persisted[0].Status.State != StateInterrupted {
		t.Fatalf("persisted jobs = %+v, want one interrupted", persisted)
	}
	snap, err := store.LatestSnapshot(v.ID)
	if err != nil {
		t.Fatalf("interrupted job has no snapshot: %v", err)
	}
	if snap.Iter <= 0 || snap.Iter >= iters {
		t.Errorf("snapshot at iteration %d, want mid-run", snap.Iter)
	}

	// Boot B: same data dir. The job must be recovered, resumed, and finish
	// bit-identically to the reference.
	mB, err := OpenManager(Config{Workers: 1, DataDir: dataDir, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		mB.Shutdown(ctx) //nolint:errcheck
	})
	if got := mB.Telemetry().JobsRecovered.Value(); got != 1 {
		t.Fatalf("boot B JobsRecovered = %d, want 1", got)
	}
	done := waitState(t, mB, v.ID, StateDone)
	if done.Resumes != 1 {
		t.Errorf("recovered job Resumes = %d, want 1", done.Resumes)
	}
	if done.Result == nil {
		t.Fatal("recovered job has no result")
	}
	if done.Result.GPIters != iters {
		t.Errorf("recovered job ran %d GP iterations, want %d", done.Result.GPIters, iters)
	}
	if done.Result.DPWL != refDone.Result.DPWL {
		t.Errorf("recovered HPWL = %v, want bit-identical %v (diff %g)",
			done.Result.DPWL, refDone.Result.DPWL, done.Result.DPWL-refDone.Result.DPWL)
	}
	if done.Result.Overflow != refDone.Result.Overflow {
		t.Errorf("recovered Overflow = %v, want bit-identical %v",
			done.Result.Overflow, refDone.Result.Overflow)
	}

	// A fresh submission on boot B must not collide with the recovered ID.
	v2, err := mB.Submit(durableSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID == v.ID {
		t.Errorf("new job reused recovered ID %s", v2.ID)
	}
	waitState(t, mB, v2.ID, StateDone)

	// Done jobs persist as history across yet another boot.
	ctx, cancelB := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelB()
	if err := mB.Shutdown(ctx); err != nil {
		t.Fatalf("boot B drain: %v", err)
	}
	mC, err := OpenManager(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		mC.Shutdown(ctx) //nolint:errcheck
	})
	hv, err := mC.Get(v.ID)
	if err != nil {
		t.Fatalf("boot C lost the finished job: %v", err)
	}
	if hv.State != StateDone || hv.Result == nil || hv.Result.DPWL != refDone.Result.DPWL {
		t.Errorf("boot C history = %+v, want done with the same result", hv)
	}
	if got := mC.Telemetry().JobsRecovered.Value(); got != 0 {
		t.Errorf("boot C re-enqueued finished jobs: JobsRecovered = %d", got)
	}
}

// TestManagerUserCancelIsNotResumed an explicit Cancel must stay cancelled
// across a restart — only drain-interrupted jobs are re-enqueued.
func TestManagerUserCancelIsNotResumed(t *testing.T) {
	dataDir := t.TempDir()
	mA, err := OpenManager(Config{Workers: 1, DataDir: dataDir, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mA.Submit(durableSpec(slowIters))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, mA, v.ID, StateRunning)
	if _, err := mA.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, mA, v.ID, StateCancelled)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mA.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	mB, err := OpenManager(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		mB.Shutdown(ctx) //nolint:errcheck
	})
	if got := mB.Telemetry().JobsRecovered.Value(); got != 0 {
		t.Errorf("cancelled job was re-enqueued: JobsRecovered = %d", got)
	}
	hv, err := mB.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if hv.State != StateCancelled {
		t.Errorf("recovered state = %s, want cancelled", hv.State)
	}
}
