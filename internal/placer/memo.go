package placer

import "math"

// densityMemo holds the engine's last density refresh — the stamp's
// overflow, the solve's energy, and the field sampled at every position
// entry — keyed by value on the position vector it was computed at.
//
// Nesterov evaluates every accepted trial point twice: once as the trial
// vT, and again as the next step's leading point v = vT. Stamping, solving
// and sampling are deterministic functions of the positions at a fixed
// worker count, so the second evaluation reuses the memo and recomputes
// only what depends on the smoothing parameter and lambda (the wirelength
// gradient and the gradient combination); the result is bit-identical to a
// recomputation.
//
// The key is compared bit for bit, so a memo is reused only for exactly the
// positions it was built from. Rewinding state (guard rollback, checkpoint
// resume) drops the memo explicitly: a field poisoned during the abandoned
// future must never be served again.
type densityMemo struct {
	pos      []float64 // key: copy of the position vector
	valid    bool
	overflow float64
	energy   float64
	fx, fy   []float64 // field samples, one per position entry
	reuses   int64     // evaluations served from the memo
}

func newDensityMemo(entries int) densityMemo {
	return densityMemo{
		pos: make([]float64, 2*entries),
		fx:  make([]float64, entries),
		fy:  make([]float64, entries),
	}
}

// holds reports whether the memo was built at exactly pos.
func (m *densityMemo) holds(pos []float64) bool {
	if !m.valid {
		return false
	}
	for i, p := range pos {
		if math.Float64bits(p) != math.Float64bits(m.pos[i]) {
			return false
		}
	}
	return true
}

// drop invalidates the memo; the next evaluation refreshes the density.
func (m *densityMemo) drop() { m.valid = false }
