package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/synth"
)

// AblationVariant is one configuration of the ablation study.
type AblationVariant struct {
	Name  string
	Model string
	// Mutate adjusts the flow configuration after defaults are applied.
	Mutate func(*core.FlowConfig)
}

// AblationVariants lists the design choices the reproduction isolates:
//
//   - the paper's tangent t-schedule (Eq. 14) vs driving the Moreau model
//     with the ePlace gamma schedule,
//   - whitespace fillers on vs off,
//   - random-center vs quadratic initial placement, and Jacobi
//     preconditioning on vs off,
//   - the WA baseline under the identical engine, for reference.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "ME(default)", Model: "ME", Mutate: func(*core.FlowConfig) {}},
		{Name: "ME+gammaSched", Model: "ME", Mutate: func(c *core.FlowConfig) { c.GP.Schedule = "gamma" }},
		{Name: "ME-nofillers", Model: "ME", Mutate: func(c *core.FlowConfig) { c.GP.NoFillers = true }},
		{Name: "ME+qinit", Model: "ME", Mutate: func(c *core.FlowConfig) { c.GP.Init = "quadratic" }},
		{Name: "ME+precond", Model: "ME", Mutate: func(c *core.FlowConfig) { c.GP.Precondition = true }},
		// The non-smooth baseline from the paper's introduction: optimize
		// exact HPWL with its canonical subgradient (Eq. 17); the paper
		// notes such methods converge slowly and poorly.
		{Name: "HPWL-subgrad", Model: "HPWL", Mutate: func(*core.FlowConfig) {}},
		{Name: "WA(reference)", Model: "WA", Mutate: func(*core.FlowConfig) {}},
	}
}

// AblationRow is one result of the ablation study.
type AblationRow struct {
	Name             string
	GPWL, LGWL, DPWL float64
	Overflow         float64
	Seconds          float64
}

// Ablation runs the ablation variants on the newblue1-like design (the
// paper's headline case) and prints the comparison. It returns the rows for
// programmatic checks.
func Ablation(w io.Writer, o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	spec := synth.SpecFromContest(synth.ISPD2006[1], o.Scale2006)
	d, err := synth.Generate(spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Ablation study on %s (%d movable cells)\n", spec.Name, spec.NumMovable+spec.NumMacros)
	fmt.Fprintf(w, "%-16s %-12s %-12s %-12s %-10s %-8s\n", "variant", "GPWL", "LGWL", "DPWL", "overflow", "RT(s)")
	var rows []AblationRow
	for _, v := range AblationVariants() {
		cfg := o.flowConfig(v.Model)
		v.Mutate(&cfg)
		res, err := core.RunFlowContext(o.ctx(), d.Clone(), cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.Name, err)
		}
		row := AblationRow{
			Name: v.Name, GPWL: res.GPWL, LGWL: res.LGWL, DPWL: res.DPWL,
			Overflow: res.Overflow, Seconds: res.TotalSeconds,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-16s %-12.5g %-12.5g %-12.5g %-10.3f %-8.2f\n",
			row.Name, row.GPWL, row.LGWL, row.DPWL, row.Overflow, row.Seconds)
		o.progressf("  ablation %-16s DPWL=%.5g\n", v.Name, row.DPWL)
	}
	return rows, nil
}
