package placer

import (
	"math"
	"testing"

	"repro/internal/wirelength"
)

// evalOnce builds an engine at the given worker count and runs one full
// objective/gradient evaluation (wirelength + stamping + spectral solve +
// field gather) at the initial placement.
func evalOnce(t *testing.T, workers int) (obj float64, grad []float64) {
	t.Helper()
	d := testDesign(t, 600, 2)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.Workers = workers
	en, pos, err := newEngine(d, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	en.param = 1.5
	en.lambda = 1e-3
	grad = make([]float64, len(pos))
	return en.eval(pos, grad), grad
}

// TestEvalParallelMatchesSerial checks the documented 1e-12 contract for the
// full evaluation pipeline: serial and parallel engines must agree on the
// objective and every gradient component for ragged and even pool sizes.
// The wirelength model is the same serial instance in every engine, so this
// isolates the density pipeline (stamping, overflow, solve, gather).
func TestEvalParallelMatchesSerial(t *testing.T) {
	refObj, refGrad := evalOnce(t, 1)
	for _, workers := range []int{1, 2, 7} {
		obj, grad := evalOnce(t, workers)
		if rel := math.Abs(obj-refObj) / math.Max(1, math.Abs(refObj)); rel > 1e-12 {
			t.Errorf("workers=%d: objective %v vs serial %v (rel %g)", workers, obj, refObj, rel)
		}
		for i := range grad {
			if d := math.Abs(grad[i]-refGrad[i]) / math.Max(1, math.Abs(refGrad[i])); d > 1e-12 {
				t.Fatalf("workers=%d: grad[%d] = %v vs serial %v", workers, i, grad[i], refGrad[i])
			}
		}
	}
}

// TestPlaceParallelMatchesSerialRun runs a short full placement serially and
// with a pool; with the deterministic per-worker reduction the trajectories
// must track each other to high precision (identical iteration count and
// near-identical final wirelength).
func TestPlaceParallelMatchesSerialRun(t *testing.T) {
	run := func(workers int) *Result {
		d := testDesign(t, 400, 0)
		cfg := fastConfig(wirelength.NewMoreau())
		cfg.MaxIters = 60
		cfg.Workers = workers
		res, err := Place(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	par := run(3)
	if par.Iterations != serial.Iterations {
		t.Errorf("iterations: parallel %d vs serial %d", par.Iterations, serial.Iterations)
	}
	if rel := math.Abs(par.HPWL-serial.HPWL) / serial.HPWL; rel > 1e-6 {
		t.Errorf("HPWL diverged: parallel %v vs serial %v (rel %g)", par.HPWL, serial.HPWL, rel)
	}
}

// TestEffectiveWorkersDefault pins that an unset worker knob means serial.
func TestEffectiveWorkersDefault(t *testing.T) {
	for _, c := range []struct{ workers, want int }{{0, 1}, {1, 1}, {4, 4}} {
		cfg := Config{Workers: c.workers}
		if got := cfg.effectiveWorkers(); got != c.want {
			t.Errorf("Workers=%d: effectiveWorkers() = %d, want %d", c.workers, got, c.want)
		}
	}
}
