// Package backoff is the repository's one retry-delay schedule: jittered
// exponential backoff with a cap. Every retry loop (checkpoint writes,
// coordinator dispatch, the worker heartbeat agent, the tenant client and
// the trajectory stream client) draws its delays from here.
package backoff

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff produces jittered exponential delays: base·2^n with ±25% jitter,
// capped. The zero value is unusable; use New. Safe for concurrent use.
type Backoff struct {
	base time.Duration
	cap  time.Duration

	mu  sync.Mutex
	n   int
	rng *rand.Rand
}

// New builds a backoff schedule. base <= 0 defaults to 100ms, cap <= 0 to
// 30·base. seed fixes the jitter stream so tests are reproducible.
func New(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap <= 0 {
		cap = 30 * base
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay in the schedule and advances it.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.base << b.n
	if d > b.cap || d <= 0 {
		d = b.cap
	} else {
		b.n++
	}
	// ±25% jitter keeps a fleet of retriers from synchronizing.
	j := time.Duration(b.rng.Int63n(int64(d)/2+1)) - d/4
	d += j
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Reset rewinds the schedule to the base delay after a success.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.n = 0
	b.mu.Unlock()
}
