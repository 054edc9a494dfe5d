package placer

import (
	"testing"

	"repro/internal/guard"
	"repro/internal/optimizer"
	"repro/internal/wirelength"
)

// memoEngine builds a fresh engine on its own copy of the test design (eval
// writes positions back into the design, so engines never share one).
func memoEngine(t *testing.T) (*engine, []float64) {
	t.Helper()
	d := testDesign(t, 300, 1)
	cfg := DefaultConfig(wirelength.NewMoreau())
	cfg.GridX, cfg.GridY = 32, 32
	en, pos, err := newEngine(d, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return en, pos
}

type evalOut struct {
	obj, overflow, energy float64
	grad                  []float64
}

func evalAt(en *engine, pos []float64, param, lambda float64) evalOut {
	en.param, en.lambda = param, lambda
	grad := make([]float64, len(pos))
	obj := en.eval(pos, grad)
	return evalOut{obj: obj, overflow: en.overflow, energy: en.lastEnergy, grad: grad}
}

// freshEvalAt is the reference: a new engine's single (memo-miss) eval.
func freshEvalAt(t *testing.T, pos []float64, param, lambda float64) evalOut {
	t.Helper()
	en, _ := memoEngine(t)
	return evalAt(en, pos, param, lambda)
}

func sameEval(t *testing.T, what string, got, want evalOut) {
	t.Helper()
	if got.obj != want.obj || got.overflow != want.overflow || got.energy != want.energy {
		t.Errorf("%s: obj/overflow/energy = %v/%v/%v, want %v/%v/%v", what,
			got.obj, got.overflow, got.energy, want.obj, want.overflow, want.energy)
	}
	for i := range want.grad {
		if got.grad[i] != want.grad[i] {
			t.Fatalf("%s: grad[%d] = %v, want %v", what, i, got.grad[i], want.grad[i])
		}
	}
}

// TestDensityReuseBitIdentical pins the density memo's contract: an eval
// that reuses the last refresh (same positions, new smoothing parameter and
// lambda) is bit-identical to a fresh engine's full evaluation, and the
// memo is keyed on the position values, not the slice.
func TestDensityReuseBitIdentical(t *testing.T) {
	en, a := memoEngine(t)
	b := append([]float64(nil), a...)
	for i := range b {
		b[i] += float64(i%7) - 3
	}
	en.project(b)

	evalAt(en, a, 1.5, 1e-3)
	reuses := en.memo.reuses
	sameEval(t, "A after A", evalAt(en, a, 0.8, 4e-3), freshEvalAt(t, a, 0.8, 4e-3))
	if en.memo.reuses != reuses+1 {
		t.Fatalf("second eval at A did not reuse the memo (reuses %d -> %d)", reuses, en.memo.reuses)
	}

	// A -> B -> A recomputes both, each matching a fresh engine.
	reuses = en.memo.reuses
	sameEval(t, "B after A", evalAt(en, b, 0.8, 4e-3), freshEvalAt(t, b, 0.8, 4e-3))
	sameEval(t, "A after B", evalAt(en, a, 2.0, 2e-3), freshEvalAt(t, a, 2.0, 2e-3))
	if en.memo.reuses != reuses {
		t.Errorf("A -> B -> A reused the memo %d times, want 0", en.memo.reuses-reuses)
	}

	// Rewriting the key's backing array in place must miss.
	a[0] = b[0]
	sameEval(t, "A mutated in place", evalAt(en, a, 2.0, 2e-3), freshEvalAt(t, a, 2.0, 2e-3))
	if en.memo.reuses != reuses {
		t.Error("eval reused the memo after its positions were rewritten in place")
	}
}

// TestRewindDropsDensityMemo: a guard rollback and a checkpoint restore
// both rewind state, so both drop the density memo even when the restored
// positions equal the memo's key (a memoized field may be poisoned).
func TestRewindDropsDensityMemo(t *testing.T) {
	en, pos := memoEngine(t)
	opt := optimizer.NewNesterov(pos, 1, en.project)
	lu := NewLambdaUpdater()
	res := &Result{}
	snap := en.snapshot(0, opt, lu, res)

	evalAt(en, opt.Pos(), 1.5, 1e-3)
	g := newGuardian(en, &guard.Config{}, lu, res, opt)
	if err := g.restoreTo(snap); err != nil {
		t.Fatal(err)
	}
	if en.memo.holds(opt.Pos()) {
		t.Error("guard rollback kept the density memo")
	}

	evalAt(en, pos, 1.5, 1e-3)
	if err := en.restore(pos, snap, lu); err != nil {
		t.Fatal(err)
	}
	if en.memo.holds(pos) {
		t.Error("checkpoint restore kept the density memo")
	}
}
