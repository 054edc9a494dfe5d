package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/synth"
	"repro/internal/wirelength"
)

// Flow workload sizes. A run places flowDesigns designs derived from the
// seed, each at least twice (untraced) or once untraced and once traced, so
// its medians average over several designs and the determinism gate always
// has a repeat to compare.
const (
	// meScale shrinks newblue1 to about 2400 movable objects, placed on a
	// meGrid x meGrid density grid: about 1.7 bins per movable object, the
	// same balance between the density solve and the per-cell work as
	// newblue1 at scale 0.03 on its 128x128 grid, at a quarter of the flow
	// time.
	meScale = 0.0073
	meGrid  = 64
	// hdCells sizes the high-degree design, placed on an hdGrid x hdGrid
	// grid.
	hdCells = 1000
	hdGrid  = 32
	// flowDesigns is how many designs one run places.
	flowDesigns = 5
	// flowWorkers is the placer's pool size (nproc on the recorded host).
	flowWorkers = 2
)

// flowGrid is the density grid dimension of a flow workload. It is a fixed
// input of the flow, so the kernel replays run at the grid the flow used.
func flowGrid(workload string) int {
	if workload == "flow-me" {
		return meGrid
	}
	return hdGrid
}

// flowDesign returns the generator spec of design j of a flow workload.
func flowDesign(workload string, seed int64, j int) synth.Spec {
	genSeed := seed*1009 + int64(j)
	if workload == "flow-me" {
		s := synth.SpecFromContest(synth.ISPD2006[1], meScale)
		s.Name = fmt.Sprintf("newblue1-like-%d-%d", seed, j)
		s.Seed = genSeed
		return s
	}
	// ISPD2019-like utilization and density target with a mean net degree
	// of 10: a large share of pins sits on nets the Moreau kernel must sort.
	return synth.Spec{
		Name:          fmt.Sprintf("high-degree-%d-%d", seed, j),
		NumMovable:    hdCells,
		NumPads:       hdCells / 50,
		NumNets:       hdCells,
		AvgDegree:     10,
		Utilization:   0.55,
		TargetDensity: 0.9,
		Seed:          genSeed,
	}
}

// flowRun is one measured RunFlowContext with what the benchmark saw
// around it.
type flowRun struct {
	gen  time.Duration // synth.Generate
	wall time.Duration // core.RunFlowContext
	res  *core.FlowResult
	// allocMB and gcCycles are runtime.MemStats deltas across the flow.
	allocMB, gcCycles float64
	design            *netlist.Design
	// Traced runs only.
	obs    *obs.Observer
	iterAt []time.Time // OnIteration timestamps
	param  float64     // smoothing parameter at the last iteration
}

func flowOnce(ctx context.Context, spec synth.Spec, grid int, seed int64, traced bool) (*flowRun, error) {
	runtime.GC() // start every flow from the same heap state
	fr := &flowRun{}
	t0 := time.Now()
	d, err := synth.Generate(spec)
	fr.gen = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	cfg := core.FlowConfig{ModelName: "ME", GP: placer.Config{Workers: flowWorkers, Seed: seed, GridX: grid, GridY: grid}}
	if traced {
		fr.obs = &obs.Observer{Trace: obs.NewTracer(), Metrics: obs.NewMetrics()}
		cfg.GP.Obs = fr.obs
		cfg.GP.OnIteration = func(pt placer.TrajectoryPoint) bool {
			fr.iterAt = append(fr.iterAt, time.Now())
			fr.param = pt.Param
			return true
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	res, err := core.RunFlowContext(ctx, d, cfg)
	fr.wall = time.Since(t1)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("flow on %s: %w", spec.Name, err)
	}
	fr.res, fr.design = res, d
	fr.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	fr.gcCycles = float64(m1.NumGC - m0.NumGC)
	return fr, nil
}

// flowGates checks one flow against the correctness gates: a legal final
// placement, and DPWL and GP iteration count identical to the first flow of
// the same seed (the flow is deterministic at a fixed worker count).
func flowGates(fr, ref *flowRun) (ok bool, detail string) {
	switch {
	case !fr.res.LegalizationOK:
		return false, "final placement is not legal"
	case fr.res.DPWL != ref.res.DPWL:
		return false, fmt.Sprintf("dpwl %v differs from the first repeat's %v", fr.res.DPWL, ref.res.DPWL)
	case fr.res.GPIters != ref.res.GPIters:
		return false, fmt.Sprintf("gp iterations %d differ from the first repeat's %d", fr.res.GPIters, ref.res.GPIters)
	}
	return true, ""
}

// runFlow runs flow-me or flow-hd: one closed-loop caller placing the
// seed's designs in passes (generate, then RunFlowContext). Untraced, it
// repeats passes while the run length allows, at least two, and reports the
// end-to-end metrics; traced, each pass places every design untraced and
// then traced, and the run reports the per-layer ledger.
func runFlow(ctx context.Context, r *report) error {
	specs := make([]synth.Spec, flowDesigns)
	for j := range specs {
		specs[j] = flowDesign(r.Workload, r.Seed, j)
	}
	kinds, minPasses := []bool{false}, 2
	if r.Trace {
		kinds, minPasses = []bool{false, true}, 1
	}
	var untraced, traced []*flowRun
	refs := make([]*flowRun, len(specs))
	var failures []string
	start := time.Now()
	var pass time.Duration
	var peakRSS float64
	for passes := 0; passes < minPasses || (ctx.Err() == nil && time.Since(start)+pass <= secondsOf(r.Seconds)); passes++ {
		passStart := time.Now()
		for j, spec := range specs {
			for _, tr := range kinds {
				r.Attempted++
				fr, err := flowOnce(ctx, spec, flowGrid(r.Workload), r.Seed, tr)
				if err != nil {
					r.Failed++
					failures = append(failures, err.Error())
					continue
				}
				if refs[j] == nil {
					refs[j] = fr
				}
				if ok, detail := flowGates(fr, refs[j]); !ok {
					r.Failed++
					failures = append(failures, spec.Name+": "+detail)
				}
				if tr {
					traced = append(traced, fr)
				} else {
					if len(untraced) > 0 {
						fr.design = nil // only the first is described; keep the heap flat
					}
					untraced = append(untraced, fr)
				}
			}
		}
		pass = time.Since(passStart)
		if passes+1 == minPasses {
			// Read after the same work on every run: later passes run only
			// when time allows, and each one is another chance at a new peak.
			peakRSS = peakRSSMB()
		}
		if len(failures) > 0 {
			break // a broken flow is not measured further
		}
	}
	r.check("flows complete, legal and deterministic", len(failures) == 0, firstOf(failures))
	if len(untraced) == 0 {
		return fmt.Errorf("no flow completed: %s", firstOf(failures))
	}
	describeDesign(r, untraced[0].design, specs[0])
	r.Inputs["grid"] = float64(flowGrid(r.Workload))
	r.Inputs["designs"] = float64(len(specs))

	if !r.Trace {
		var setup, flow, dpwl, jps, jobMS []float64
		for _, fr := range untraced {
			setup = append(setup, fr.gen.Seconds()+fr.res.GPSetupSeconds)
			flow = append(flow, fr.wall.Seconds())
			op := fr.gen + fr.wall
			jps = append(jps, 1/op.Seconds())
			jobMS = append(jobMS, float64(op)/float64(time.Millisecond))
		}
		for _, ref := range refs {
			if ref != nil {
				dpwl = append(dpwl, ref.res.DPWL) // exact per design
			}
		}
		r.add("setup_s", "s", setup)
		r.add("flow_s", "s", flow)
		r.add("dpwl", "hpwl", dpwl)
		r.add("peak_rss_mb", "MB", []float64{peakRSS})
		r.add("jobs_per_s", "1/s", jps)
		r.add("job_p50_ms", "ms", jobMS)
		r.add("failed_frac", "ratio", []float64{float64(r.Failed) / float64(r.Attempted)})
		return nil
	}
	return flowLayers(r, untraced, traced, flowGrid(r.Workload))
}

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// flowLayers folds the traced flows into the per-layer metrics and ledger.
func flowLayers(r *report, untraced, traced []*flowRun, grid int) error {
	if len(traced) == 0 {
		return fmt.Errorf("no traced flow completed")
	}
	var gen, alloc, gc, plain []float64
	for _, fr := range untraced {
		alloc = append(alloc, fr.allocMB)
		gc = append(gc, fr.gcCycles)
		plain = append(plain, fr.wall.Seconds())
		gen = append(gen, fr.gen.Seconds())
	}
	cols := map[string][]float64{}
	var lg []*ledger
	var tracedWall []float64
	for _, fr := range traced {
		gen = append(gen, fr.gen.Seconds())
		tracedWall = append(tracedWall, fr.wall.Seconds())
		res := fr.res
		snap := fr.obs.Metrics.Snapshot()
		push := func(k string, v float64) { cols[k] = append(cols[k], v) }
		push("core.gp_s", res.GPSeconds)
		push("placer.iters", float64(res.GPIters))
		push("placer.evals", float64(snap.Evaluations))
		push("moreau.net_evals", float64(snap.Counters["moreau_net_evals"]))
		push("moreau.large_sorts", float64(snap.Counters["moreau_large_sorts"]))
		push("moreau.degenerate", float64(snap.Counters["moreau_degenerate"]))
		push("detailed.gain_frac", (res.LGWL-res.DPWL)/res.LGWL)
		var iterMS []float64
		for i := 1; i < len(fr.iterAt); i++ {
			iterMS = append(iterMS, float64(fr.iterAt[i].Sub(fr.iterAt[i-1]))/float64(time.Millisecond))
		}
		push("placer.iter_ms_p50", median(iterMS))
		if v, _, ok := tail(iterMS); ok {
			push("placer.iter_ms_tail", v)
		}
		l := flowLedger(fr)
		lg = append(lg, l)
		for _, line := range l.Lines {
			push(line.Name, line.Seconds)
		}
	}
	r.add("synth.generate_s", "s", gen)
	for _, name := range []string{"core.gp_s", "core.lg_s", "core.dp_s", "core.unattributed_s",
		"placer.setup_s", "placer.wirelength_s", "placer.stamp_s", "placer.solve_s",
		"placer.gather_s", "placer.step_self_s", "placer.unattributed_s"} {
		r.add(name, "s", cols[name])
	}
	for _, name := range []string{"placer.iters", "placer.evals", "moreau.net_evals", "moreau.large_sorts", "moreau.degenerate"} {
		r.add(name, "count", cols[name])
	}
	r.add("placer.iter_ms_p50", "ms", cols["placer.iter_ms_p50"])
	r.add("placer.iter_ms_tail", "ms", cols["placer.iter_ms_tail"])
	r.add("detailed.gain_frac", "ratio", cols["detailed.gain_frac"])
	r.add("go.alloc_mb", "MB", alloc)
	r.add("go.gc_cycles", "count", gc)
	// Each pass places a design untraced and then traced, so the two lists
	// pair up design by design.
	var overhead []float64
	for i := range traced {
		if i < len(plain) {
			overhead = append(overhead, (tracedWall[i]-plain[i])/plain[i])
		}
	}
	r.add("obs.trace_overhead_frac", "ratio", overhead)
	r.add("failed_frac", "ratio", []float64{float64(r.Failed) / float64(r.Attempted)})
	r.Ledger = medianLedger(lg)
	r.check("ledger reconciles with traced wall time", r.Ledger.OK, r.Ledger.Detail)
	replayKernels(r, traced[len(traced)-1], grid)
	return nil
}

// describeDesign records the workload's input shape, including the share of
// pins on nets above 16 pins (the Moreau kernel's sorting regime).
func describeDesign(r *report, d *netlist.Design, spec synth.Spec) {
	pins, big, maxDeg := 0, 0, 0
	for e := range d.Nets {
		k := len(d.NetPins(e))
		pins += k
		if k > 16 {
			big += k
		}
		if k > maxDeg {
			maxDeg = k
		}
	}
	mov := len(d.MovableIndices())
	r.Inputs["cells"] = float64(d.NumCells())
	r.Inputs["movable"] = float64(mov)
	r.Inputs["nets"] = float64(d.NumNets())
	r.Inputs["pins"] = float64(pins)
	r.Inputs["max_net_degree"] = float64(maxDeg)
	r.Inputs["pins_on_nets_over_16"] = float64(big) / float64(pins)
	r.Inputs["macros"] = float64(spec.NumMacros)
}

// replayKernels times the wirelength gradient, the density stamp and the
// spectral solve on the last traced flow's final placement, outside any
// flow: the per-call cost of each kernel at this workload's sizes and grid.
func replayKernels(r *report, fr *flowRun, n int) {
	d := fr.design
	const budget = 300 * time.Millisecond
	model, err := wirelength.ParallelByName("ME", flowWorkers)
	if err != nil {
		r.check("kernel replay", false, err.Error())
		return
	}
	gx := make([]float64, d.NumCells())
	gy := make([]float64, d.NumCells())
	grad := timeRepeated(budget, func() { model.WirelengthGrad(d, fr.param, gx, gy) })
	r.add("wirelength.grad_ns_per_pin", "ns", scale(grad, 1e9/float64(d.NumPins())))

	mov := d.MovableIndices()
	grid := density.NewGrid(d.Region, n, n)
	cx := make([]float64, len(mov))
	cy := make([]float64, len(mov))
	w := make([]float64, len(mov))
	h := make([]float64, len(mov))
	for i, c := range mov {
		rect := d.CellRect(c)
		cx[i], cy[i] = (rect.XL+rect.XH)/2, (rect.YL+rect.YH)/2
		w[i], h[i] = rect.W(), rect.H()
	}
	cell := func(i int) (float64, float64, float64, float64) { return cx[i], cy[i], w[i], h[i] }
	st := density.NewStamper(grid, flowWorkers)
	stamp := timeRepeated(budget, func() {
		grid.Clear()
		st.StampSmoothed(len(mov), cell)
	})
	r.add("density.stamp_ns_per_cell", "ns", scale(stamp, 1e9/float64(len(mov))))

	el := density.NewElectroWorkers(grid, flowWorkers)
	solve := timeRepeated(budget, el.SolveFromGrid)
	r.add("density.solve_ms", "ms", scale(solve, 1e3))
	// Computed, not measured: the solve's four stages (forward DCT and the
	// psi, Ex, Ey syntheses) each make two 1-D passes over the grid plus a
	// transpose, every pass reading and writing one float64 per bin.
	r.add("density.solve_bytes_computed", "B", []float64{float64(4 * 3 * 2 * 8 * n * n)})
}

// timeRepeated calls f until budget has elapsed (at least five times) and
// returns each call's duration in seconds.
func timeRepeated(budget time.Duration, f func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < 5 || time.Since(start) < budget {
		t := time.Now()
		f()
		out = append(out, time.Since(t).Seconds())
	}
	return out
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func firstOf(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	if len(xs) == 1 {
		return xs[0]
	}
	return fmt.Sprintf("%s (and %d more)", xs[0], len(xs)-1)
}
