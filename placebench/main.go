// Command placebench is the benchmark of record for this repository: it runs
// one seeded workload per process through the library's public entry points
// and prints every end-to-end metric with its unit, median, quartiles and
// sample count, followed by one JSON result line.
//
//	placebench --workload flow-me --seed 1 --seconds 30 --trace 0
//	placebench --compare old.json new.json
//
// With --trace 1 it runs the same workload with tracing on and reports the
// per-layer ledger instead. See README.md for the workloads, the metric map
// and how to compare two commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
)

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports on an untraced run; each
// is defined on all three workloads (see README.md), so the gate can hold
// every one of them on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flow_s", "s"},
	{"dpwl", "hpwl"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
}

// perLayer are the metrics a traced run reports. A layer that a workload
// does not run reads 0 there (README.md lists which apply where).
var perLayer = []metricDef{
	{"synth.generate_s", "s"},
	{"core.gp_s", "s"},
	{"core.lg_s", "s"},
	{"core.dp_s", "s"},
	{"core.unattributed_s", "s"},
	{"placer.setup_s", "s"},
	{"placer.iters", "count"},
	{"placer.evals", "count"},
	{"placer.iter_ms_p50", "ms"},
	{"placer.iter_ms_tail", "ms"},
	{"placer.wirelength_s", "s"},
	{"placer.stamp_s", "s"},
	{"placer.solve_s", "s"},
	{"placer.gather_s", "s"},
	{"placer.step_self_s", "s"},
	{"placer.unattributed_s", "s"},
	{"moreau.net_evals", "count"},
	{"moreau.large_sorts", "count"},
	{"moreau.degenerate", "count"},
	{"wirelength.grad_ns_per_pin", "ns"},
	{"density.stamp_ns_per_cell", "ns"},
	{"density.solve_ms", "ms"},
	{"density.solve_bytes_computed", "B"},
	{"detailed.gain_frac", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.near_hit_ratio", "ratio"},
	{"service.stats_lag", "count"},
	{"ecocache.entries", "count"},
	{"ecocache.bytes", "B"},
	{"obs.trace_overhead_frac", "ratio"},
	{"job_tail_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"eco_p50_ms", "ms"},
	{"failed_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, r *report) error{
	"flow-me":   runFlow,
	"flow-hd":   runFlow,
	"serve-eco": runServe,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("placebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: flow-me, flow-hd or serve-eco")
	seed := fs.Int64("seed", 1, "workload seed; the generated inputs are a pure function of it")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two report files: placebench --compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "placebench: --compare needs two report files")
			return 2
		}
		if err := compareReports(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "placebench:", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "placebench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "placebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	r := &report{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		Host:     stampHost(os.TempDir()),
		Inputs:   map[string]float64{},
	}
	if err := runner(ctx, r); err != nil {
		fmt.Fprintln(os.Stderr, "placebench:", err)
		return 1
	}
	r.print(stdout)
	if *out != "" {
		if err := r.save(*out); err != nil {
			fmt.Fprintln(os.Stderr, "placebench:", err)
			return 1
		}
	}
	line, err := r.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "placebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !r.correct() {
		return 1
	}
	return 0
}

// metric is one reported metric: its sample distribution and unit.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
	// Note qualifies the value, e.g. the percentile a tail sits at.
	Note string `json:"note,omitempty"`
}

// gate is one correctness check; any failed gate makes the run incorrect.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one invocation measured.
type report struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Inputs   map[string]float64 `json:"inputs"`
	Metrics  []metric           `json:"metrics"`
	Ledger   *ledger            `json:"ledger,omitempty"`
	Gates    []gate             `json:"gates"`
	// Attempted counts operations (flows or jobs); Failed those that
	// errored or failed a correctness gate.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// add records a metric from its samples; an empty sample is skipped.
func (r *report) add(name, unit string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, summary: summarize(xs)})
}

// addTail records the highest percentile with at least ten samples beyond
// it, noting which percentile that is.
func (r *report) addTail(name string, xs []float64) {
	v, pct, ok := tail(xs)
	if !ok {
		return
	}
	r.Metrics = append(r.Metrics, metric{
		Name: name, Unit: "ms", summary: summary{Median: v, Q1: v, Q3: v, N: len(xs)},
		Note: fmt.Sprintf("p%.1f", pct),
	})
}

func (r *report) check(name string, ok bool, detail string) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: detail})
}

func (r *report) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return r.Failed == 0 && r.Attempted > 0
}

func (r *report) lookup(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *report) print(w io.Writer) {
	mode := "end-to-end"
	if r.Trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(w, "placebench %s workload=%s seed=%d seconds=%g\n", mode, r.Workload, r.Seed, r.Seconds)
	h := r.Host
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s data_dir_fs=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.DataDirFS)
	keys := make([]string, 0, len(r.Inputs))
	for k := range r.Inputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "inputs:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%g", k, r.Inputs[k])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-30s %-6s %14s %14s %14s %5s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-30s %-6s %14.6g %14.6g %14.6g %5d %s\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N, m.Note)
	}
	if r.Ledger != nil {
		r.Ledger.print(w)
	}
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "gate %-34s %s %s\n", g.Name, status, g.Detail)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d\n", r.Attempted, r.Failed)
}

func (r *report) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// resultLine renders the one-line JSON result: the medians of the metric
// list for this mode. Layers the workload does not run read 0.
func (r *report) resultLine() (string, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := r.lookup(d.name)
		if !ok && !r.Trace {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if ok && m.Unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		ms[d.name] = value{Value: m.Median, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, ms})
	return string(b), err
}

// compareReports prints old vs new medians per metric. It refuses reports
// from different hosts or workloads: such ratios are not evidence.
func compareReports(w io.Writer, oldPath, newPath string) error {
	load := func(p string) (*report, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("decode %s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		return fmt.Errorf("host stamps differ (%+v vs %+v); results from different hosts are not compared", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return errors.New("reports differ in workload, mode or run length")
	}
	fmt.Fprintf(w, "workload=%s seeds %d -> %d\n", a.Workload, a.Seed, b.Seed)
	fmt.Fprintf(w, "%-30s %-6s %14s %14s %9s %9s\n", "metric", "unit", "old median", "new median", "change", "old iqr")
	for _, m := range a.Metrics {
		n, ok := b.lookup(m.Name)
		if !ok {
			continue
		}
		change, iqr := 0.0, 0.0
		if m.Median != 0 {
			change = (n.Median - m.Median) / m.Median
			iqr = (m.Q3 - m.Q1) / m.Median
		}
		fmt.Fprintf(w, "%-30s %-6s %14.6g %14.6g %+8.1f%% %8.1f%%\n", m.Name, m.Unit, m.Median, n.Median, 100*change, 100*iqr)
	}
	return nil
}
