package backoff

import (
	"testing"
	"time"
)

func TestBackoffBoundsAndReset(t *testing.T) {
	base := 100 * time.Millisecond
	b := New(base, time.Second, 7)
	prevMax := time.Duration(0)
	for i := 0; i < 8; i++ {
		d := b.Next()
		if d < time.Millisecond || d > time.Second+time.Second/4 {
			t.Fatalf("attempt %d: delay %s outside [1ms, cap+25%%]", i, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax < base {
		t.Fatalf("delays never grew past the base: max %s", prevMax)
	}
	b.Reset()
	d := b.Next()
	// Post-reset the exponent is back at 0: base ± 25% jitter.
	if d > base+base/4 {
		t.Fatalf("post-reset delay %s, want ~base %s", d, base)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a := New(50*time.Millisecond, 0, 42)
	b := New(50*time.Millisecond, 0, 42)
	for i := 0; i < 6; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("same seed diverged at attempt %d: %s vs %s", i, da, db)
		}
	}
}
