package service

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecocache"
)

// cacheSpec is a small deterministic GP-only job used by the cache tests.
func cacheSpec(cells int) JobSpec {
	return JobSpec{
		Design: DesignSpec{Synth: &SynthSpec{Cells: cells, Seed: 3}},
		Model:  "ME",
		Placer: PlacerSpec{
			MaxIters:     300,
			StopOverflow: 0.15,
			GridX:        32,
			GridY:        32,
			Workers:      2,
		},
		Flow: FlowSpec{GPOnly: true},
	}
}

// newDurableManager opens a store-backed manager (which also opens the
// placement-result cache under <dir>/ecocache).
func newDurableManager(t *testing.T, dir string, workers int) *Manager {
	t.Helper()
	m, err := OpenManager(Config{DataDir: dir, Workers: workers, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck // double shutdown in cleanup is fine
	})
	return m
}

// TestCacheExactHitBitIdentical pins the exact-hit contract: resubmitting an
// identical spec is served from the cache without running the GP loop, and
// the served positions are bit-identical to what actually running the flow
// produces.
func TestCacheExactHitBitIdentical(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, 1)
	spec := cacheSpec(120)

	v1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done1 := waitState(t, m, v1.ID, StateDone)
	if done1.Cache != "miss" {
		t.Errorf("first run cache outcome %q, want miss", done1.Cache)
	}

	// Ground truth: replay the same spec through the flow directly. The
	// pipeline is deterministic, so these are the bits the cache must serve.
	d, err := spec.buildDesign("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunFlow(d, spec.flowConfig()); err != nil {
		t.Fatal(err)
	}

	v2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done2 := waitState(t, m, v2.ID, StateDone)
	if done2.Cache != "hit" {
		t.Fatalf("resubmission cache outcome %q, want hit", done2.Cache)
	}
	if done2.Result == nil || done2.Result.GPIters != 0 {
		t.Errorf("exact hit ran the GP loop: %+v", done2.Result)
	}
	if done2.Result.DPWL != done1.Result.DPWL {
		t.Errorf("hit HPWL %v differs from original %v", done2.Result.DPWL, done1.Result.DPWL)
	}

	key := ecocache.Key{Design: d.ContentHash(), Config: spec.cacheFingerprint().Key()}
	cached := m.cache.Get(key)
	if cached == nil {
		t.Fatal("finished job not found in the cache")
	}
	for i := range d.X {
		if cached.X[i] != d.X[i] || cached.Y[i] != d.Y[i] {
			t.Fatalf("cached position %d not bit-identical to a fresh run", i)
		}
	}

	st := m.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestCacheHitSurvivesRestart reopens the manager on the same data dir and
// expects the resubmission to hit the recovered cache.
func TestCacheHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec(100)

	m1, err := OpenManager(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, v1.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newDurableManager(t, dir, 1)
	if st := m2.Stats(); st.CacheEntries != 1 {
		t.Fatalf("reopened cache has %d entries, want 1", st.CacheEntries)
	}
	v2, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m2, v2.ID, StateDone)
	if done.Cache != "hit" {
		t.Fatalf("post-restart resubmission cache outcome %q, want hit", done.Cache)
	}
}

// TestCacheNearHitWarmStartsFromParent submits an ECO child (parent spec plus
// a small perturbation and the parent reference) and expects the near-hit
// path: warm start off the parent's cached placement, fewer GP iterations
// than the parent's cold run.
func TestCacheNearHitWarmStartsFromParent(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, 1)
	parentSpec := cacheSpec(300)

	v1, err := m.Submit(parentSpec)
	if err != nil {
		t.Fatal(err)
	}
	parent := waitState(t, m, v1.ID, StateDone)

	childSpec := parentSpec
	childSpec.Parent = v1.ID
	childSpec.Design.Perturb = &PerturbSpec{Seed: 9, CellFrac: 0.01}
	v2, err := m.Submit(childSpec)
	if err != nil {
		t.Fatal(err)
	}
	child := waitState(t, m, v2.ID, StateDone)
	if child.Cache != "near_hit" {
		t.Fatalf("child cache outcome %q, want near_hit", child.Cache)
	}
	if child.Result == nil || child.Result.GPIters >= parent.Result.GPIters {
		t.Errorf("warm start took %d GP iterations, parent cold run took %d",
			child.Result.GPIters, parent.Result.GPIters)
	}
	if st := m.Stats(); st.CacheNearHits != 1 {
		t.Errorf("stats = %+v, want 1 near hit", st)
	}

	// A child referencing an unknown parent must degrade to a cold start.
	orphan := childSpec
	orphan.Parent = "job-999999"
	orphan.Design.Perturb = &PerturbSpec{Seed: 10, CellFrac: 0.01}
	v3, err := m.Submit(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, m, v3.ID, StateDone); done.Cache != "miss" {
		t.Errorf("orphan child cache outcome %q, want miss", done.Cache)
	}
}

// TestCacheNearHitSurvivesRetentionPrune pins the spec-archive contract: a
// parent's cached placement outlives its job record, so an ECO child must
// still warm-start after retention pruning deleted the parent's job
// directory (the spec moves into the archive instead of vanishing).
func TestCacheNearHitSurvivesRetentionPrune(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(Config{DataDir: dir, Workers: 1, QueueDepth: 8, Retention: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck
	})
	parentSpec := cacheSpec(300)
	v1, err := m.Submit(parentSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v1.ID, StateDone)

	// Age the parent out of retention with filler jobs of a different design.
	for i := 0; i < 3; i++ {
		filler := cacheSpec(80)
		filler.Design.Synth.Seed = int64(100 + i)
		fv, err := m.Submit(filler)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, fv.ID, StateDone)
	}
	if _, err := m.store.LoadSpec(v1.ID); err == nil {
		t.Fatal("parent job directory survived retention pruning; test premise broken")
	}
	if _, err := m.store.LoadArchivedSpec(v1.ID); err != nil {
		t.Fatalf("pruned parent spec not archived: %v", err)
	}

	child := parentSpec
	child.Parent = v1.ID
	child.Design.Perturb = &PerturbSpec{Seed: 9, CellFrac: 0.01}
	v2, err := m.Submit(child)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitState(t, m, v2.ID, StateDone); done.Cache != "near_hit" {
		t.Fatalf("child of pruned parent cache outcome %q, want near_hit", done.Cache)
	}
}

// spinUntilTerminal polls Get without sleeping and returns the first terminal
// view, so the caller acts at the earliest instant a client could.
func spinUntilTerminal(t *testing.T, m *Manager, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State.Terminal() {
			return v
		}
		runtime.Gosched()
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// TestDonePublishedAfterSideEffects pins the publish order: the instant Get
// first reads done, Stats already counts the job, no longer counts it as
// running, and the cache already holds its entry, so a resubmission made at
// that instant is an exact hit.
func TestDonePublishedAfterSideEffects(t *testing.T) {
	m := newDurableManager(t, t.TempDir(), 1)
	spec := cacheSpec(60)
	spec.Placer.MaxIters = 20 // only the publish order matters, not the placement

	v1, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if done := spinUntilTerminal(t, m, v1.ID); done.State != StateDone {
		t.Fatalf("first job ended %s (err=%q), want done", done.State, done.Error)
	}
	st := m.Stats()
	if st.Running != 0 || st.CacheEntries != 1 || st.CacheMisses != 1 || m.tel.JobsDone.Value() != 1 {
		t.Errorf("stats when the cold job first reads done = %+v, jobs done %d; want 0 running, 1 entry, 1 miss, 1 done",
			st, m.tel.JobsDone.Value())
	}

	v2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := spinUntilTerminal(t, m, v2.ID)
	st = m.Stats()
	if done.State != StateDone || done.Cache != "hit" {
		t.Fatalf("resubmission at the instant of done: state %s, cache outcome %q; want done, hit", done.State, done.Cache)
	}
	if st.Running != 0 || st.CacheHits != 1 || m.tel.JobsDone.Value() != 2 {
		t.Errorf("stats when the hit first reads done = %+v, jobs done %d; want 0 running, 1 hit, 2 done",
			st, m.tel.JobsDone.Value())
	}
}
