// Package faultinject provides a deterministic, seed-driven fault plan for
// exercising the placer's recovery paths: divergence guard rollback,
// failing-disk handling in every durable store, and service-level panic
// isolation.
//
// A Plan is a set of scheduled Faults, each bound to an injection Site (a
// named hook point in wirelength, density, durable-write, or service code).
// Production code never imports this package; instead each instrumented
// package exposes a plain nil-checked hook variable (wirelength.GradHook,
// density.SolveHook, durable.Hook, ...) and tests install closures
// that consult a Plan. The hot path pays one nil check when no plan is
// armed, and there are no build tags to keep in sync.
//
// Determinism: a Fault fires on exact visit counts (After+1 .. After+Times
// arrivals at its Site), and FromSeed derives any randomized injection
// points from a fixed seed, so every failing schedule is reproducible from
// (seed, plan) alone.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Site names a hook point where a fault can be injected.
type Site string

// The injection sites wired up by this repo's test hooks.
const (
	// SiteWirelengthGrad is consulted once per whole-design wirelength
	// gradient evaluation (wirelength.GradHook).
	SiteWirelengthGrad Site = "wirelength-grad"
	// SitePoissonSolve is consulted once per spectral Poisson solve
	// (density.SolveHook).
	SitePoissonSolve Site = "poisson-solve"
	// SiteDurableWrite is consulted from durable.Hook, the one seam under
	// every durable file write (checkpoints, job store, result cache,
	// coordinator journal); the hook picks which write steps visit it.
	SiteDurableWrite Site = "durable-write"
	// SiteServiceRun is consulted once per job execution at the top of the
	// service worker's run function.
	SiteServiceRun Site = "service-run"
)

// Mode says what the injected fault does at its site.
type Mode string

const (
	// ModeNaN poisons numeric outputs with NaN.
	ModeNaN Mode = "nan"
	// ModeError makes the site return a transient error.
	ModeError Mode = "error"
	// ModePoison corrupts one value of the site's output (finite garbage).
	ModePoison Mode = "poison"
	// ModePanic makes the site panic.
	ModePanic Mode = "panic"
)

// ErrInjected is the sentinel wrapped by every error this package
// fabricates, so tests can errors.Is their way past wrapping layers.
var ErrInjected = errors.New("injected fault")

// Fault schedules one Mode at one Site. It fires on the After+1-th through
// After+Times-th visits to the site; Times <= 0 means exactly once, and
// Forever makes it fire on every visit past After. Every > 0 switches to
// periodic scheduling: the fault fires on every Every-th visit past After,
// indefinitely (Times is ignored; Forever still wins).
type Fault struct {
	Site    Site
	Mode    Mode
	After   int  // visits to skip before firing
	Times   int  // number of consecutive visits to fire on (<=0 means 1)
	Every   int  // fire on every Every-th visit past After (periodic)
	Forever bool // fire on every visit past After (overrides Times/Every)
}

// fires reports whether the fault fires on the visit-th arrival (1-based).
func (f Fault) fires(visit int) bool {
	if visit <= f.After {
		return false
	}
	if f.Forever {
		return true
	}
	if f.Every > 0 {
		return (visit-f.After-1)%f.Every == 0
	}
	times := f.Times
	if times <= 0 {
		times = 1
	}
	return visit <= f.After+times
}

// Err fabricates the transient error for a ModeError firing.
func (f Fault) Err() error {
	return fmt.Errorf("faultinject: %s at %s: %w", f.Mode, f.Site, ErrInjected)
}

// Plan is a concurrency-safe set of scheduled faults with per-site visit
// counters. The zero value is unusable; use NewPlan or FromSeed.
type Plan struct {
	mu     sync.Mutex
	faults []Fault
	visits map[Site]int
	fired  map[Site]int
}

// NewPlan builds a plan from an explicit fault schedule.
func NewPlan(faults ...Fault) *Plan {
	return &Plan{
		faults: append([]Fault(nil), faults...),
		visits: make(map[Site]int),
		fired:  make(map[Site]int),
	}
}

// FromSeed builds a plan whose faults with After < 0 get a reproducible
// injection point drawn uniformly from [0, spread) by a generator seeded
// with seed. Faults with After >= 0 are kept as given. spread < 1 is
// treated as 1.
func FromSeed(seed int64, spread int, faults ...Fault) *Plan {
	if spread < 1 {
		spread = 1
	}
	rng := rand.New(rand.NewSource(seed))
	fs := append([]Fault(nil), faults...)
	for i := range fs {
		if fs[i].After < 0 {
			fs[i].After = rng.Intn(spread)
		}
	}
	return NewPlan(fs...)
}

// Visit records one arrival at site and returns the fault that fires on
// this visit, if any. When several faults at the same site fire on the
// same visit, the first in schedule order wins.
func (p *Plan) Visit(site Site) (Fault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.visits[site]++
	v := p.visits[site]
	for _, f := range p.faults {
		if f.Site == site && f.fires(v) {
			p.fired[site]++
			return f, true
		}
	}
	return Fault{}, false
}

// Visits returns how many times site has been visited so far.
func (p *Plan) Visits(site Site) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.visits[site]
}

// Fired returns how many faults have fired at site so far.
func (p *Plan) Fired(site Site) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[site]
}

// String summarizes the schedule, deterministically ordered, for test logs.
func (p *Plan) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := make([]string, len(p.faults))
	for i, f := range p.faults {
		reps := "x1"
		switch {
		case f.Forever:
			reps = "forever"
		case f.Every > 0:
			reps = fmt.Sprintf("every%d", f.Every)
		case f.Times > 1:
			reps = fmt.Sprintf("x%d", f.Times)
		}
		parts[i] = fmt.Sprintf("%s:%s@%d:%s", f.Site, f.Mode, f.After, reps)
	}
	sort.Strings(parts)
	return "plan{" + strings.Join(parts, " ") + "}"
}
