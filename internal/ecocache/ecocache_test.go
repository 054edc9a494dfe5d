package ecocache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/netlist"
)

func testKey(b byte, cfg uint64) Key {
	var h netlist.Hash
	for i := range h {
		h[i] = b
	}
	return Key{Design: h, Config: cfg}
}

func testResult(n int, seed float64) *checkpoint.PlacementResult {
	r := &checkpoint.PlacementResult{HPWL: 100 * seed, Iterations: 42, Seconds: 1.5}
	for i := 0; i < n; i++ {
		r.X = append(r.X, seed+float64(i))
		r.Y = append(r.Y, seed-float64(i))
	}
	return r
}

func TestCachePutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1, 7)
	if c.Get(key) != nil {
		t.Fatal("empty cache returned a result")
	}
	want := testResult(5, 3)
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got := c.Get(key)
	if got == nil {
		t.Fatal("stored entry not found")
	}
	for i := range want.X {
		if got.X[i] != want.X[i] || got.Y[i] != want.Y[i] {
			t.Fatalf("position %d not bit-identical", i)
		}
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2, 9)
	if err := c.Put(key, testResult(3, 1)); err != nil {
		t.Fatal(err)
	}
	// A foreign file in the directory must not break recovery.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 1 {
		t.Fatalf("reopened cache has %d entries, want 1", st.Entries)
	}
	if r := c2.Get(key); r == nil || r.HPWL != 100 {
		t.Fatalf("reopened cache lost the entry: %+v", r)
	}
}

// TestCacheOpenSweepsStrayTemps: a crash mid-Put leaves the write's temp
// file behind. Nothing indexes it, so Open must delete it or it would sit
// outside the MaxBytes bound forever.
func TestCacheOpenSweepsStrayTemps(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, ".tmp-"+testKey(3, 1).fileName()+"-123456")
	if err := os.WriteFile(stray, make([]byte, 4096), 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp file survived Open: %v", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want an empty cache", st)
	}
}

// TestCachePutFailingDisk: a Put whose durable write fails returns the error
// and leaves the entry unindexed, so a later Get misses instead of serving
// a placement that may not be on disk.
func TestCachePutFailingDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(faultinject.Fault{
		Site: faultinject.SiteDurableWrite, Mode: faultinject.ModeError,
	})
	durable.Hook = func(path, step string) error {
		if filepath.Dir(path) != dir || step != "sync" {
			return nil
		}
		if f, ok := plan.Visit(faultinject.SiteDurableWrite); ok {
			return fmt.Errorf("%w: %w", syscall.EIO, f.Err())
		}
		return nil
	}
	t.Cleanup(func() { durable.Hook = nil })

	key := testKey(4, 2)
	if err := c.Put(key, testResult(3, 1)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put = %v, want the injected failure", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after failed Put = %+v, want nothing indexed", st)
	}
	if c.Get(key) != nil {
		t.Fatal("Get served an entry whose Put failed")
	}
	if des, _ := os.ReadDir(dir); len(des) != 0 {
		t.Fatalf("failed Put left %d files behind", len(des))
	}
}

func TestCacheDropsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3, 11)
	if err := c.Put(key, testResult(4, 2)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.fileName())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if c.Get(key) != nil {
		t.Fatal("cache served a corrupt entry")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("corrupt entry not dropped: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file left on disk")
	}
}

func TestCacheEvictsLRUByEntries(t *testing.T) {
	c, err := Open(t.TempDir(), Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := testKey(1, 1), testKey(2, 2), testKey(3, 3)
	for _, k := range []Key{k1, k2} {
		if err := c.Put(k, testResult(2, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k1 so k2 is the LRU victim.
	if c.Get(k1) == nil {
		t.Fatal("k1 missing")
	}
	if err := c.Put(k3, testResult(2, 1)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	if c.Get(k2) != nil {
		t.Fatal("LRU entry k2 survived eviction")
	}
	if c.Get(k1) == nil || c.Get(k3) == nil {
		t.Fatal("wrong entry evicted")
	}
}

func TestCacheEvictsByBytes(t *testing.T) {
	big := testResult(1000, 1)
	size := int64(len(checkpoint.EncodeResult(big)))
	c, err := Open(t.TempDir(), Options{MaxEntries: 100, MaxBytes: size + size/2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(1, 1), big); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey(2, 2), big); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes > size+size/2 {
		t.Fatalf("byte bound not enforced: %+v (entry size %d)", st, size)
	}
}

func TestKeyFileNameRoundTrip(t *testing.T) {
	key := testKey(0xab, 0x1234567890abcdef)
	got, ok := parseFileName(key.fileName())
	if !ok || got != key {
		t.Fatalf("parseFileName(%q) = %v, %t", key.fileName(), got, ok)
	}
	for _, bad := range []string{"x.place", "notes.txt", "deadbeef-0.place"} {
		if _, ok := parseFileName(bad); ok {
			t.Errorf("parseFileName accepted %q", bad)
		}
	}
}

func TestConfigFingerprintKeySensitivity(t *testing.T) {
	base := ConfigFingerprint{Model: "ME", GridX: 64, GridY: 64, MaxIters: 500, Seed: 1, Workers: 4}
	k := base.Key()
	edits := map[string]func(*ConfigFingerprint){
		"model":     func(f *ConfigFingerprint) { f.Model = "WA" },
		"grid":      func(f *ConfigFingerprint) { f.GridX = 128 },
		"iters":     func(f *ConfigFingerprint) { f.MaxIters = 400 },
		"seed":      func(f *ConfigFingerprint) { f.Seed = 2 },
		"workers":   func(f *ConfigFingerprint) { f.Workers = 8 },
		"gponly":    func(f *ConfigFingerprint) { f.GPOnly = true },
		"schedule":  func(f *ConfigFingerprint) { f.Schedule = "tangent" },
		"precond":   func(f *ConfigFingerprint) { f.Precondition = true },
		"nofillers": func(f *ConfigFingerprint) { f.NoFillers = true },
		"guard":     func(f *ConfigFingerprint) { f.Guard = true },
	}
	for name, edit := range edits {
		f := base
		edit(&f)
		if f.Key() == k {
			t.Errorf("edit %q did not change the config key", name)
		}
	}
	if base.Key() != k {
		t.Fatal("config key is not deterministic")
	}
}
