package optimizer

import (
	"math"
	"math/rand"
	"testing"
)

// quadratic returns an Evaluate for f(x) = 1/2 sum c_i (x_i - b_i)^2.
func quadratic(c, b []float64) Evaluate {
	return func(pos, grad []float64) float64 {
		v := 0.0
		for i := range pos {
			d := pos[i] - b[i]
			grad[i] = c[i] * d
			v += 0.5 * c[i] * d * d
		}
		return v
	}
}

func TestNesterovMinimizesQuadratic(t *testing.T) {
	n := 50
	rng := rand.New(rand.NewSource(1))
	c := make([]float64, n)
	b := make([]float64, n)
	x0 := make([]float64, n)
	for i := range c {
		c[i] = 0.5 + rng.Float64()*10 // condition number ~20
		b[i] = rng.NormFloat64() * 5
		x0[i] = rng.NormFloat64() * 5
	}
	o := NewNesterov(x0, 0.01, nil)
	eval := quadratic(c, b)
	for k := 0; k < 300; k++ {
		o.Step(eval)
	}
	for i, v := range o.Pos() {
		if math.Abs(v-b[i]) > 1e-3 {
			t.Fatalf("x[%d] = %g, want %g", i, v, b[i])
		}
	}
}

func TestNesterovBeatsMomentumOnIllConditioned(t *testing.T) {
	n := 40
	c := make([]float64, n)
	b := make([]float64, n)
	x0 := make([]float64, n)
	for i := range c {
		c[i] = math.Pow(10, 3*float64(i)/float64(n-1)) // kappa = 1e3
		b[i] = 1
		x0[i] = 0
	}
	iters := 200
	eval := quadratic(c, b)

	nes := NewNesterov(x0, 1e-4, nil)
	for k := 0; k < iters; k++ {
		nes.Step(eval)
	}
	// Baseline: fixed-step gradient descent with classical momentum
	// (lr 1e-4, beta 0.9).
	mom := append([]float64(nil), x0...)
	vel := make([]float64, n)
	grad := make([]float64, n)
	for k := 0; k < iters; k++ {
		eval(mom, grad)
		for i := range mom {
			vel[i] = 0.9*vel[i] - 1e-4*grad[i]
			mom[i] += vel[i]
		}
	}
	g := make([]float64, n)
	fNes := eval(nes.Pos(), g)
	fMom := eval(mom, g)
	if fNes >= fMom {
		t.Errorf("Nesterov (%g) should beat fixed-LR momentum (%g) on ill-conditioned quadratic", fNes, fMom)
	}
}

func TestProjectionKeepsIteratesFeasible(t *testing.T) {
	// Minimize (x-10)^2 constrained to [0, 2]: projection must hold the
	// iterate at the boundary 2.
	proj := func(pos []float64) {
		for i := range pos {
			if pos[i] < 0 {
				pos[i] = 0
			}
			if pos[i] > 2 {
				pos[i] = 2
			}
		}
	}
	eval := quadratic([]float64{1}, []float64{10})
	o := NewNesterov([]float64{1}, 0.1, proj)
	for k := 0; k < 200; k++ {
		o.Step(eval)
	}
	if got := o.Pos()[0]; got < 0 || got > 2 {
		t.Errorf("iterate %g escaped [0,2]", got)
	}
	if got := o.Pos()[0]; math.Abs(got-2) > 1e-6 {
		t.Errorf("converged to %g, want boundary 2", got)
	}
}

// The BB step prediction must adapt: on a pure quadratic with uniform
// curvature c the predicted step approaches 1/c.
func TestNesterovStepAdaptsToCurvature(t *testing.T) {
	c := 4.0
	eval := quadratic([]float64{c, c, c}, []float64{0, 0, 0})
	o := NewNesterov([]float64{1, 2, 3}, 1e-3, nil)
	for k := 0; k < 10; k++ {
		o.Step(eval)
	}
	// After convergence the estimate must persist at the curvature inverse.
	if got := o.LastStepSize(); math.Abs(got-1/c) > 1e-6 {
		t.Errorf("BB step = %g, want %g", got, 1/c)
	}
}

func TestNesterovAlphaMaxClamp(t *testing.T) {
	eval := quadratic([]float64{1e-6}, []float64{0}) // tiny curvature -> huge BB step
	o := NewNesterov([]float64{1}, 0.1, nil)
	o.AlphaMax = 0.5
	for k := 0; k < 5; k++ {
		o.Step(eval)
	}
	if o.LastStepSize() > 0.5 {
		t.Errorf("step %g exceeded AlphaMax", o.LastStepSize())
	}
}

// Nonconvex sanity: Nesterov still descends on a Rosenbrock-like surface.
func TestNesterovDescendsRosenbrock(t *testing.T) {
	eval := func(pos, grad []float64) float64 {
		x, y := pos[0], pos[1]
		f := (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
		grad[0] = -2*(1-x) - 400*x*(y-x*x)
		grad[1] = 200 * (y - x*x)
		return f
	}
	o := NewNesterov([]float64{-1, 1}, 1e-4, nil)
	o.AlphaMax = 1e-2
	first := o.Step(eval)
	var last float64
	for k := 0; k < 3000; k++ {
		last = o.Step(eval)
	}
	if last >= first {
		t.Errorf("no descent on Rosenbrock: %g -> %g", first, last)
	}
	if last > 1 {
		t.Errorf("Rosenbrock value after 3000 iters = %g, want < 1", last)
	}
}

func BenchmarkNesterovStep(b *testing.B) {
	n := 10000
	c := make([]float64, n)
	bb := make([]float64, n)
	x0 := make([]float64, n)
	for i := range c {
		c[i] = 1 + float64(i%7)
		x0[i] = float64(i % 13)
	}
	o := NewNesterov(x0, 1e-3, nil)
	eval := quadratic(c, bb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Step(eval)
	}
}
