package optimizer

import "fmt"

// State is a serializable dump of the optimizer's internal iterate and
// history, sufficient to restore it mid-run and continue bit-exactly: a
// restored optimizer produces the same sequence of Step results as one that
// was never interrupted. It uses only flat primitive slices, so any codec
// (e.g. internal/checkpoint) can frame it without knowing the optimizer.
type State struct {
	// Kind names the producing optimizer. Nesterov writes "nesterov";
	// snapshots from older builds may carry "adam" or "momentum", which
	// Restore rejects.
	Kind string
	// Scalars, Ints, Bools, Vectors hold the optimizer's state in the
	// fixed order documented on Nesterov.Snapshot.
	Scalars []float64
	Ints    []int64
	Bools   []bool
	Vectors [][]float64
}

func cloneVec(v []float64) []float64 { return append([]float64(nil), v...) }

// Snapshot returns the Nesterov state. Layout: Scalars = [a, alpha0,
// alphaMax, lastAlpha]; Ints = [maxBacktrack, evalCount]; Bools =
// [haveLastStep]; Vectors = [u, v, prevV, g, prevG].
func (o *Nesterov) Snapshot() State {
	return State{
		Kind:    "nesterov",
		Scalars: []float64{o.a, o.alpha0, o.AlphaMax, o.lastAlpha},
		Ints:    []int64{int64(o.MaxBacktrack), int64(o.evalCount)},
		Bools:   []bool{o.haveLastStep},
		Vectors: [][]float64{cloneVec(o.u), cloneVec(o.v), cloneVec(o.prevV), cloneVec(o.g), cloneVec(o.prevG)},
	}
}

// Restore overwrites the Nesterov state from a snapshot. Snapshots are
// outside input (they come off disk), so the kind and every length are
// checked before anything is overwritten.
func (o *Nesterov) Restore(s State) error {
	if s.Kind != "nesterov" {
		return fmt.Errorf("optimizer: state is for %q, not \"nesterov\"", s.Kind)
	}
	if len(s.Scalars) != 4 || len(s.Ints) != 2 || len(s.Bools) != 1 || len(s.Vectors) != 5 {
		return fmt.Errorf("optimizer: nesterov state has shape %d/%d/%d/%d, want 4/2/1/5",
			len(s.Scalars), len(s.Ints), len(s.Bools), len(s.Vectors))
	}
	for i, v := range s.Vectors {
		if len(v) != len(o.u) {
			return fmt.Errorf("optimizer: nesterov state vector %d has %d entries, want %d", i, len(v), len(o.u))
		}
	}
	o.a, o.alpha0, o.AlphaMax, o.lastAlpha = s.Scalars[0], s.Scalars[1], s.Scalars[2], s.Scalars[3]
	o.MaxBacktrack = int(s.Ints[0])
	o.evalCount = int(s.Ints[1])
	o.haveLastStep = s.Bools[0]
	copy(o.u, s.Vectors[0])
	copy(o.v, s.Vectors[1])
	copy(o.prevV, s.Vectors[2])
	copy(o.g, s.Vectors[3])
	copy(o.prevG, s.Vectors[4])
	return nil
}
