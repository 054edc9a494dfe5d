package placer

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/wirelength"
)

// BenchmarkEvalGrad measures one full objective/gradient evaluation —
// parallel wirelength, density stamping, overflow, spectral solve, and field
// gather — the unit of work the Nesterov loop repeats for every new point
// it visits. The workers=4 vs workers=1 ratio is the end-to-end speedup
// recorded in BENCH_PR2.json (meaningful only on a 4+-core machine).
func BenchmarkEvalGrad(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			d := testDesign(b, 6000, 4)
			m, err := wirelength.ParallelByName("ME", workers)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(m)
			cfg.Workers = workers
			cfg.GridX, cfg.GridY = 128, 128
			en, pos, err := newEngine(d, cfg, workers)
			if err != nil {
				b.Fatal(err)
			}
			en.param = 1.5
			en.lambda = 1e-3
			grad := make([]float64, len(pos))
			// Alternate between two placements so every evaluation misses
			// the density memo and runs the whole pipeline.
			other := append([]float64(nil), pos...)
			for i := range other {
				other[i] += 1
			}
			en.project(other)
			at := [2][]float64{pos, other}
			// Warm up so short -benchtime runs measure the steady state
			// (faulted-in buffers, hot caches, trained branch predictors),
			// and settle the garbage from engine construction so no GC cycle
			// lands inside a measured iteration.
			for i := 0; i < 4; i++ {
				en.eval(at[i%2], grad)
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				en.eval(at[i%2], grad)
			}
		})
	}
}

// BenchmarkStep measures one full Nesterov iteration on the engine: the
// leading evaluation at v, which reuses the density refresh of the previous
// step's accepted trial, plus the trial evaluation(s), which refresh it.
// It fails outright when a step allocates or never reuses the density memo,
// so the benchmark smoke run in CI guards the reuse path.
func BenchmarkStep(b *testing.B) {
	d := testDesign(b, 6000, 4)
	m, err := wirelength.ParallelByName("ME", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(m)
	cfg.Workers = 1
	cfg.GridX, cfg.GridY = 128, 128
	en, pos, err := newEngine(d, cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	en.param = 1.5
	en.lambda = 1e-3
	opt := optimizer.NewNesterov(pos, 1e-3*(en.grid.BinW+en.grid.BinH), en.project)
	step := func() { opt.Step(en.evalFn) }
	for i := 0; i < 3; i++ {
		step()
	}
	reuses := en.memo.reuses
	if n := testing.AllocsPerRun(2, step); n != 0 {
		b.Fatalf("Nesterov step allocates %v times, want 0", n)
	}
	if en.memo.reuses == reuses {
		b.Fatal("Nesterov steps never reused the density memo")
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
