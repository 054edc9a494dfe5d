package placer

import (
	"testing"

	"repro/internal/wirelength"
)

// TestEvalSteadyStateAllocFree pins the zero-allocation contract of the full
// objective/gradient evaluation (wirelength + density stamp + spectral solve
// + field gather) on both paths: the miss path, alternating two position
// vectors so every call refreshes the density, and the hit path, repeating
// one vector so every call reuses the density memo. The first call grows the
// wirelength lane scratch to the design's pin count; every call after that
// must not touch the heap.
func TestEvalSteadyStateAllocFree(t *testing.T) {
	d := testDesign(t, 2000, 2)
	m, err := wirelength.ParallelByName("ME", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(m)
	cfg.Workers = 1
	cfg.GridX, cfg.GridY = 64, 64
	en, pos, err := newEngine(d, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	en.param = 1.5
	en.lambda = 1e-3
	other := append([]float64(nil), pos...)
	for i := range other {
		other[i] += 1
	}
	en.project(other)
	grad := make([]float64, len(pos))
	en.eval(pos, grad) // warm up: lane scratch growth happens here

	reuses := en.memo.reuses
	miss := testing.AllocsPerRun(10, func() {
		en.eval(other, grad)
		en.eval(pos, grad)
	})
	if en.memo.reuses != reuses {
		t.Fatalf("alternating positions reused the density memo %d times", en.memo.reuses-reuses)
	}
	if miss != 0 {
		t.Errorf("engine.eval (density refresh) allocates %v times per pair of calls, want 0", miss)
	}

	hit := testing.AllocsPerRun(10, func() { en.eval(pos, grad) })
	if en.memo.reuses == reuses {
		t.Fatal("repeated positions never reused the density memo")
	}
	if hit != 0 {
		t.Errorf("engine.eval (density reuse) allocates %v times per call, want 0", hit)
	}
}
