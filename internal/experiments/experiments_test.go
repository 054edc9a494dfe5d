package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/synth"
)

// tinyOptions keeps experiment tests fast: micro-scale suites, short GP.
func tinyOptions() Options {
	return Options{
		Scale2006:    0.0005,
		Scale2019:    0.002,
		MaxIters:     120,
		StopOverflow: 0.25,
		Workers:      2,
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"adaptec5", "newblue7", "ispd19_test10", "842482", "3957499"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestRunSuiteTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("flow suite in -short mode")
	}
	o := tinyOptions()
	specs := []synth.Spec{
		{Name: "t1", NumMovable: 200, NumPads: 4, NumNets: 220, AvgDegree: 3.5,
			Utilization: 0.7, TargetDensity: 1, Seed: 1},
		{Name: "t2", NumMovable: 150, NumPads: 4, NumNets: 160, AvgDegree: 3.5,
			Utilization: 0.7, TargetDensity: 1, Seed: 2},
	}
	tbl, err := RunSuite("tiny", specs, []string{"WA", "ME"}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Designs()) != 2 {
		t.Fatalf("table has %d rows", len(tbl.Designs()))
	}
	for _, d := range tbl.Designs() {
		for _, m := range []string{"WA", "ME"} {
			c, ok := tbl.Get(d, m)
			if !ok || c.LGWL <= 0 || c.DPWL <= 0 || c.RT <= 0 {
				t.Errorf("%s/%s cell invalid: %+v ok=%v", d, m, c, ok)
			}
			// DP never worsens the legalized wirelength.
			if c.DPWL > c.LGWL+1e-6 {
				t.Errorf("%s/%s: DPWL %g > LGWL %g", d, m, c.DPWL, c.LGWL)
			}
		}
	}
	ratios := tbl.AvgRatios()
	if r, ok := ratios["ME"]; !ok || math.Abs(r[1]-1) > 1e-12 {
		t.Errorf("ME self-ratio = %v", ratios["ME"])
	}
}

func TestRunSuitePropagatesErrors(t *testing.T) {
	o := tinyOptions()
	specs := []synth.Spec{{Name: "bad", NumMovable: 0, NumNets: 1, AvgDegree: 2, Utilization: 0.5}}
	if _, err := RunSuite("bad", specs, []string{"WA"}, o); err == nil {
		t.Error("invalid spec did not fail the suite")
	}
	specs = []synth.Spec{{Name: "badmodel", NumMovable: 100, NumPads: 4, NumNets: 110,
		AvgDegree: 3, Utilization: 0.7, TargetDensity: 1, Seed: 1}}
	if _, err := RunSuite("badmodel", specs, []string{"NOPE"}, o); err == nil {
		t.Error("unknown model did not fail the suite")
	}
}

func TestFig1aFindsWANonConvexity(t *testing.T) {
	var buf bytes.Buffer
	_, nonConvex := Fig1a(&buf)
	if len(nonConvex) == 0 {
		t.Error("Fig1a found no WA convexity violations; the paper's Fig. 1(a) shows them")
	}
	out := buf.String()
	if !strings.Contains(out, "WA(gamma=10)") || !strings.Contains(out, "ME(t=10)") {
		t.Error("Fig1a output missing expected series")
	}
	if !strings.Contains(out, "ME violations: false") {
		t.Error("ME curve should have no convexity violations")
	}
}

func TestFig1bErrorOrderingAndTrend(t *testing.T) {
	var buf bytes.Buffer
	pts := Fig1b(&buf, 500, 42)
	if len(pts) < 5 {
		t.Fatalf("only %d points", len(pts))
	}
	// The paper's claim (its model is W^t + t): for equal smoothing
	// parameter the reported Moreau model has lower average error than
	// LSE and WA throughout the practical range (param up to dx/2). The
	// raw envelope's error is ~t by Theorem 2; the +t offset cancels it.
	for _, p := range pts {
		if p.Param > 100 {
			continue
		}
		if p.MEPlusOffset > p.LSE+1e-9 || p.MEPlusOffset > p.WA+1e-9 {
			t.Errorf("param=%g: ME+t error %g above LSE %g or WA %g",
				p.Param, p.MEPlusOffset, p.LSE, p.WA)
		}
		// And the raw envelope error tracks the Theorem 2 bound ~t.
		if p.ME > p.Param*1.01+1e-9 {
			t.Errorf("param=%g: raw envelope error %g exceeds t", p.Param, p.ME)
		}
	}
	// Errors grow with the smoothing parameter for every model.
	last := pts[len(pts)-1]
	first := pts[0]
	if !(last.LSE > first.LSE && last.WA > first.WA && last.ME > first.ME) {
		t.Error("errors should grow with the smoothing parameter")
	}
	// At tiny parameters every model approximates well.
	if first.LSE > 5 || first.WA > 5 || first.ME > 1 {
		t.Errorf("errors at param=%g too large: %+v", first.Param, first)
	}
}

func TestStabilityStudyShowsOverflow(t *testing.T) {
	var buf bytes.Buffer
	StabilityStudy(&buf)
	out := buf.String()
	if !strings.Contains(out, "OVERFLOW") {
		t.Error("naive kernels should overflow somewhere in the table")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	lastLine := lines[len(lines)-1] // gamma = 0.1 row
	if strings.Count(lastLine, "OVERFLOW") < 2 {
		t.Errorf("gamma=0.1 row should overflow both naive kernels: %q", lastLine)
	}
	// Stable columns never overflow: count total occurrences (2 naive
	// columns x 2 small gammas = up to 4; stable columns add none).
	if strings.Count(out, "OVERFLOW") > 8 {
		t.Errorf("stable kernels overflowed:\n%s", out)
	}
}

func TestFig3TrajectoriesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 flows in -short mode")
	}
	o := tinyOptions()
	o.Scale2006 = 0.0008
	o.Scale2019 = 0.0008
	var buf bytes.Buffer
	blocks, err := Fig3(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || len(blocks[0].Series) != 2 {
		t.Fatalf("unexpected Fig3 blocks: %d", len(blocks))
	}
	out := buf.String()
	for _, want := range []string{"Fig3a-newblue1-like", "Fig3b-ispd19_test10-like", "series: WA", "series: ME"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q", want)
		}
	}
}

func TestAblationTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation flows in -short mode")
	}
	o := tinyOptions()
	o.Scale2006 = 0.0008
	var buf bytes.Buffer
	rows, err := Ablation(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationVariants()) {
		t.Fatalf("%d rows for %d variants", len(rows), len(AblationVariants()))
	}
	for _, r := range rows {
		if r.DPWL <= 0 || r.Seconds <= 0 {
			t.Errorf("variant %s produced invalid row: %+v", r.Name, r)
		}
	}
	out := buf.String()
	for _, want := range []string{"ME(default)", "ME+gammaSched", "ME+qinit", "WA(reference)"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestSeedStudyTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("seed study flows in -short mode")
	}
	o := tinyOptions()
	o.Scale2006 = 0.0006
	var buf bytes.Buffer
	stats, err := SeedStudy(&buf, o, []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("%d stat rows", len(stats))
	}
	for _, s := range stats {
		if s.Mean <= 0 || len(s.PerSeed) != 2 {
			t.Errorf("bad stats: %+v", s)
		}
		if s.Min > s.Mean || s.Max < s.Mean {
			t.Errorf("min/mean/max inconsistent: %+v", s)
		}
	}
	if !strings.Contains(buf.String(), "Seed study") {
		t.Error("missing header")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale2006 != synth.Scale2006 || o.Scale2019 != synth.Scale2019 {
		t.Errorf("default scales wrong: %g %g", o.Scale2006, o.Scale2019)
	}
	if o.MaxIters != 2500 || o.StopOverflow != 0.07 {
		t.Errorf("default effort wrong: %d %g", o.MaxIters, o.StopOverflow)
	}
	if o.Workers < 1 {
		t.Errorf("workers = %d", o.Workers)
	}
	// Explicit values survive.
	o2 := Options{MaxIters: 7, StopOverflow: 0.5, Workers: 3}.withDefaults()
	if o2.MaxIters != 7 || o2.StopOverflow != 0.5 || o2.Workers != 3 {
		t.Errorf("explicit options overridden: %+v", o2)
	}
}

func TestFlowConfigSchedulesByModel(t *testing.T) {
	o := Options{}.withDefaults()
	me := o.flowConfig("ME")
	if me.ModelName != "ME" {
		t.Errorf("model name = %q", me.ModelName)
	}
	if me.GP.MaxIters != o.MaxIters || me.GP.StopOverflow != o.StopOverflow {
		t.Error("flow config did not inherit effort settings")
	}
}
