package transport

import (
	"testing"
	"time"
)

func TestBackoffDelayBounds(t *testing.T) {
	// The delay spreads over [d/2, d]: clients redialing a crashed broker
	// must not stampede in lockstep.
	b := Backoff{Min: 100 * time.Millisecond, Max: 800 * time.Millisecond, Rand: NewJitter(1)}
	seen := make(map[time.Duration]struct{})
	for attempt := 0; attempt < 10; attempt++ {
		base := 100 * time.Millisecond << uint(attempt)
		if base > 800*time.Millisecond {
			base = 800 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := b.Delay(attempt)
			if d < base/2 || d > base {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base/2, base)
			}
			seen[d] = struct{}{}
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d distinct delays in 500 draws", len(seen))
	}
}

func TestBackoffDeterministicRand(t *testing.T) {
	// r=0 pins the floor, r→1 approaches the full base: the jitter window
	// is [d/2, d].
	floor := Backoff{Min: 200 * time.Millisecond, Max: time.Second, Rand: func() float64 { return 0 }}
	if d := floor.Delay(0); d != 100*time.Millisecond {
		t.Fatalf("floor delay=%v, want 100ms", d)
	}
	if d := floor.Delay(1); d != 200*time.Millisecond {
		t.Fatalf("floor delay(1)=%v, want 200ms", d)
	}
	almost := Backoff{Min: 200 * time.Millisecond, Max: time.Second, Rand: func() float64 { return 0.999999 }}
	if d := almost.Delay(0); d < 199*time.Millisecond || d > 200*time.Millisecond {
		t.Fatalf("ceiling delay=%v, want ~200ms", d)
	}
}

func TestNewJitterDeterministicPerSeed(t *testing.T) {
	a, b := NewJitter(7), NewJitter(7)
	other := NewJitter(8)
	var diverged bool
	for i := 0; i < 1000; i++ {
		va, vb, vo := a(), b(), other()
		if va != vb {
			t.Fatalf("same seed diverged at draw %d: %v != %v", i, va, vb)
		}
		if va < 0 || va >= 1 {
			t.Fatalf("draw %d out of [0,1): %v", i, va)
		}
		if va != vo {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical sequences")
	}
}

func TestNewJitterZeroSeed(t *testing.T) {
	// Zero is the unset-config case; xorshift64 state must never be zero or
	// the generator gets stuck at 0 forever.
	j := NewJitter(0)
	first := j()
	var moved bool
	for i := 0; i < 100; i++ {
		v := j()
		if v < 0 || v >= 1 {
			t.Fatalf("draw out of [0,1): %v", v)
		}
		if v != first {
			moved = true
		}
	}
	if !moved {
		t.Fatal("zero-seed jitter is constant")
	}
}

func TestBackoffCap(t *testing.T) {
	b := Backoff{Min: 50 * time.Millisecond, Max: 300 * time.Millisecond, Rand: func() float64 { return 0 }}
	// Growth: 50, 100, 200, 300 (capped), 300, ...
	want := []time.Duration{25, 50, 100, 150, 150, 150}
	for i, w := range want {
		if d := b.Delay(i); d != w*time.Millisecond {
			t.Fatalf("delay(%d)=%v, want %v", i, d, w*time.Millisecond)
		}
	}
	if d := b.Delay(100); d != 150*time.Millisecond {
		t.Fatalf("delay(100)=%v, want the cap's floor 150ms", d)
	}
	if d := b.Delay(-1); d != 25*time.Millisecond {
		t.Fatalf("negative attempt delay=%v, want attempt 0's 25ms", d)
	}
}
