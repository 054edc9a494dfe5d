package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/obs"
)

// ledgerTolerance is the share of the traced wall time by which the ledger
// may miss it, and by which any residual may go negative.
const ledgerTolerance = 0.01

// ledgerLine is one row of the per-layer time ledger. Residual rows are the
// named "*.unattributed_*" remainders of a layer's own clock.
type ledgerLine struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Residual bool    `json:"residual,omitempty"`
}

// ledger splits a traced wall time into layer self times plus residuals.
type ledger struct {
	Wall      float64      `json:"wall_s"`
	Lines     []ledgerLine `json:"lines"`
	Sum       float64      `json:"sum_s"`
	Tolerance float64      `json:"tolerance"`
	OK        bool         `json:"ok"`
	Detail    string       `json:"detail,omitempty"`
}

// clockCheck compares two clocks that time nested or identical stretches:
// Excess is the time by which the inner clock claims more than the outer
// one allows, and the check fails when it exceeds the tolerance share of
// Scale, the outer clock's total.
type clockCheck struct {
	Name          string
	Excess, Scale float64
}

// reconcile sums the lines and checks them against the wall time: the sum
// must match within the tolerance and no residual may be negative beyond
// it (which would mean some layer's spans claim more time than the clock
// that contains them). checks are further comparisons between clocks.
func (l *ledger) reconcile(checks []clockCheck) {
	l.Tolerance = ledgerTolerance
	l.Sum = 0
	for _, line := range l.Lines {
		l.Sum += line.Seconds
	}
	tol := ledgerTolerance * l.Wall
	l.OK = true
	fail := func(format string, args ...any) {
		if l.OK {
			l.Detail = fmt.Sprintf(format, args...)
		}
		l.OK = false
	}
	if math.Abs(l.Sum-l.Wall) > tol {
		fail("ledger sums to %.4fs, traced wall is %.4fs", l.Sum, l.Wall)
	}
	for _, line := range l.Lines {
		if line.Residual && line.Seconds < -tol {
			fail("residual %s is %.4fs", line.Name, line.Seconds)
		}
	}
	for _, c := range checks {
		if c.Excess > ledgerTolerance*c.Scale {
			fail("%s: off by %.4fs of %.4fs", c.Name, c.Excess, c.Scale)
		}
	}
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger (wall %.4fs, tolerance %.0f%% of wall):\n", l.Wall, 100*l.Tolerance)
	for _, line := range l.Lines {
		share := 0.0
		if l.Wall > 0 {
			share = line.Seconds / l.Wall
		}
		fmt.Fprintf(w, "  %-28s %12.4fs %7.2f%%\n", line.Name, line.Seconds, 100*share)
	}
	fmt.Fprintf(w, "  %-28s %12.4fs %7.2f%%\n", "sum", l.Sum, 100*l.Sum/l.Wall)
}

// medianLedger combines per-operation ledgers row by row (medians), keeping
// the first failure. All ledgers must have the same rows.
func medianLedger(ls []*ledger) *ledger {
	out := &ledger{OK: true, Tolerance: ledgerTolerance}
	var walls []float64
	for _, l := range ls {
		walls = append(walls, l.Wall)
		if !l.OK && out.OK {
			out.OK, out.Detail = false, l.Detail
		}
	}
	out.Wall = median(walls)
	for i, line := range ls[0].Lines {
		var xs []float64
		for _, l := range ls {
			xs = append(xs, l.Lines[i].Seconds)
		}
		out.Lines = append(out.Lines, ledgerLine{Name: line.Name, Seconds: median(xs), Residual: line.Residual})
	}
	for _, line := range out.Lines {
		out.Sum += line.Seconds
	}
	return out
}

// Span folding. An absorbing phase owns all time under it (its own and its
// descendants'); the other phases keep only their self time.
var (
	absorbingLayer = map[string]string{
		obs.PhaseSetup:         "placer.setup_s",
		obs.PhaseSolve:         "placer.solve_s",
		obs.PhaseLegalize:      "core.lg_s",
		obs.PhaseDetailed:      "core.dp_s",
		obs.PhaseGuardRollback: "placer.guard_s",
	}
	selfLayer = map[string]string{
		obs.PhaseWirelength: "placer.wirelength_s",
		obs.PhaseStamp:      "placer.stamp_s",
		obs.PhaseGather:     "placer.gather_s",
		obs.PhaseStep:       "placer.step_self_s",
		obs.PhaseIteration:  "placer.iteration_self_s",
		obs.PhaseDCT:        "placer.solve_s",
		obs.PhaseSynthPsi:   "placer.solve_s",
		obs.PhaseSynthEx:    "placer.solve_s",
		obs.PhaseSynthEy:    "placer.solve_s",
	}
)

// foldSpans nests the engine's spans by interval containment and returns
// seconds per layer: self time for ordinary phases, whole subtrees for
// absorbing ones.
func foldSpans(events []obs.SpanEvent) map[string]float64 {
	evs := append([]obs.SpanEvent(nil), events...)
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].TS != evs[b].TS {
			return evs[a].TS < evs[b].TS
		}
		return evs[a].Dur > evs[b].Dur // parents before children
	})
	type node struct {
		end   float64
		layer string
		owned bool // layer comes from an absorbing ancestor or itself
	}
	out := map[string]float64{}
	var stack []node
	for _, ev := range evs {
		for len(stack) > 0 && stack[len(stack)-1].end <= ev.TS {
			stack = stack[:len(stack)-1]
		}
		secs := ev.Dur / 1e6
		n := node{end: ev.TS + ev.Dur}
		var parent *node
		if len(stack) > 0 {
			parent = &stack[len(stack)-1]
		}
		switch {
		case parent != nil && parent.owned:
			n.layer, n.owned = parent.layer, true
		case absorbingLayer[ev.Name] != "":
			n.layer, n.owned = absorbingLayer[ev.Name], true
		case selfLayer[ev.Name] != "":
			n.layer = selfLayer[ev.Name]
		default:
			n.layer = "other_s"
		}
		// A child's time moves from its parent's layer to its own; inside
		// an absorbing subtree both are the same layer.
		if parent == nil || !parent.owned {
			out[n.layer] += secs
			if parent != nil {
				out[parent.layer] -= secs
			}
		}
		stack = append(stack, n)
	}
	return out
}

// flowLedger splits one traced flow's wall time (measured around
// RunFlowContext) into the engine's phase layers and residuals: the placer
// residual is global-placement time no phase span covers (iteration
// bookkeeping, the per-iteration HPWL probe, finalization); the core
// residual is flow time outside GP, LG and DP.
func flowLedger(fr *flowRun) *ledger {
	res := fr.res
	spans := foldSpans(fr.obs.Trace.Events())
	phase := []string{"placer.wirelength_s", "placer.stamp_s", "placer.solve_s", "placer.gather_s", "placer.step_self_s"}
	l := &ledger{Wall: fr.wall.Seconds()}
	l.Lines = append(l.Lines, ledgerLine{Name: "placer.setup_s", Seconds: res.GPSetupSeconds})
	covered := 0.0
	for _, name := range phase {
		l.Lines = append(l.Lines, ledgerLine{Name: name, Seconds: spans[name]})
		covered += spans[name]
	}
	l.Lines = append(l.Lines,
		ledgerLine{Name: "placer.unattributed_s", Seconds: res.GPSeconds - res.GPSetupSeconds - covered, Residual: true},
		ledgerLine{Name: "core.lg_s", Seconds: res.LGSeconds},
		ledgerLine{Name: "core.dp_s", Seconds: res.DPSeconds},
		ledgerLine{Name: "core.unattributed_s", Seconds: l.Wall - res.GPSeconds - res.LGSeconds - res.DPSeconds, Residual: true},
	)
	// The spans and the engine's stage clocks measure the same stages.
	l.reconcile([]clockCheck{
		{"legalize span vs FlowResult.LGSeconds", math.Abs(spans["core.lg_s"] - res.LGSeconds), l.Wall},
		{"detailed span vs FlowResult.DPSeconds", math.Abs(spans["core.dp_s"] - res.DPSeconds), l.Wall},
		{"gp-setup span within FlowResult.GPSetupSeconds", math.Max(0, spans["placer.setup_s"]-res.GPSetupSeconds), l.Wall},
	})
	return l
}
