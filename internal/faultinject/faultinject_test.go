package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestFaultFiresOnExactVisits(t *testing.T) {
	p := NewPlan(Fault{Site: SiteWirelengthGrad, Mode: ModeNaN, After: 2, Times: 2})
	var fired []int
	for v := 1; v <= 6; v++ {
		if _, ok := p.Visit(SiteWirelengthGrad); ok {
			fired = append(fired, v)
		}
	}
	if want := []int{3, 4}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired on visits %v, want %v", fired, want)
	}
	if got := p.Visits(SiteWirelengthGrad); got != 6 {
		t.Errorf("Visits = %d, want 6", got)
	}
	if got := p.Fired(SiteWirelengthGrad); got != 2 {
		t.Errorf("Fired = %d, want 2", got)
	}
}

func TestFaultDefaultsToOnce(t *testing.T) {
	p := NewPlan(Fault{Site: SitePoissonSolve, Mode: ModePoison})
	n := 0
	for v := 0; v < 5; v++ {
		if _, ok := p.Visit(SitePoissonSolve); ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("default Times fired %d times, want 1", n)
	}
}

func TestFaultForever(t *testing.T) {
	p := NewPlan(Fault{Site: SiteDurableWrite, Mode: ModeError, After: 1, Forever: true})
	n := 0
	for v := 0; v < 10; v++ {
		if _, ok := p.Visit(SiteDurableWrite); ok {
			n++
		}
	}
	if n != 9 {
		t.Fatalf("Forever fault fired %d times after 10 visits, want 9", n)
	}
}

func TestSitesAreIndependent(t *testing.T) {
	p := NewPlan(
		Fault{Site: SiteWirelengthGrad, Mode: ModeNaN, After: 0},
		Fault{Site: SiteServiceRun, Mode: ModePanic, After: 0},
	)
	if _, ok := p.Visit(SiteWirelengthGrad); !ok {
		t.Fatal("wirelength fault did not fire on first visit")
	}
	if p.Fired(SiteServiceRun) != 0 {
		t.Fatal("visiting one site fired another")
	}
	if f, ok := p.Visit(SiteServiceRun); !ok || f.Mode != ModePanic {
		t.Fatalf("service fault = %+v fired=%v, want panic fault", f, ok)
	}
}

func TestFromSeedIsDeterministic(t *testing.T) {
	mk := func(seed int64) *Plan {
		return FromSeed(seed, 50,
			Fault{Site: SiteWirelengthGrad, Mode: ModeNaN, After: -1},
			Fault{Site: SitePoissonSolve, Mode: ModePoison, After: -1},
			Fault{Site: SiteDurableWrite, Mode: ModeError, After: 7},
		)
	}
	a, b := mk(42), mk(42)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different plans:\n%s\n%s", a, b)
	}
	if a.faults[2].After != 7 {
		t.Errorf("explicit After was rewritten: %d", a.faults[2].After)
	}
	if a.faults[0].After < 0 || a.faults[0].After >= 50 {
		t.Errorf("randomized After out of range: %d", a.faults[0].After)
	}
	c := mk(43)
	if a.String() == c.String() {
		t.Logf("seeds 42 and 43 collided (possible but unlikely): %s", a)
	}
}

func TestErrWrapsSentinel(t *testing.T) {
	f := Fault{Site: SiteDurableWrite, Mode: ModeError}
	if !errors.Is(f.Err(), ErrInjected) {
		t.Fatal("Fault.Err does not wrap ErrInjected")
	}
}

func TestPlanConcurrentVisits(t *testing.T) {
	p := NewPlan(Fault{Site: SiteDurableWrite, Mode: ModeError, After: 0, Forever: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Visit(SiteDurableWrite)
			}
		}()
	}
	wg.Wait()
	if got := p.Visits(SiteDurableWrite); got != 800 {
		t.Fatalf("Visits = %d, want 800", got)
	}
}

func TestFaultEveryPeriodic(t *testing.T) {
	p := NewPlan(Fault{Site: SiteServiceRun, Mode: ModeError, After: 2, Every: 3})
	var fired []int
	for v := 1; v <= 12; v++ {
		if _, ok := p.Visit(SiteServiceRun); ok {
			fired = append(fired, v)
		}
	}
	// Past After=2, every 3rd visit: 3, 6, 9, 12.
	want := []int{3, 6, 9, 12}
	if len(fired) != len(want) {
		t.Fatalf("fired on %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on %v, want %v", fired, want)
		}
	}
	if got := p.Fired(SiteServiceRun); got != 4 {
		t.Errorf("Fired = %d, want 4", got)
	}
	if s := p.String(); !strings.Contains(s, "every3") {
		t.Errorf("String() = %q, want every3 marker", s)
	}
}

func TestFaultForeverOverridesEvery(t *testing.T) {
	f := Fault{Site: SiteServiceRun, Mode: ModeError, Every: 5, Forever: true}
	for v := 1; v <= 7; v++ {
		if !f.fires(v) {
			t.Fatalf("Forever fault skipped visit %d", v)
		}
	}
}
