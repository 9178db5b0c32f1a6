package transport

import "time"

// Backoff computes capped exponential redial delays with "equal jitter":
// attempt n waits uniformly in [d/2, d] where d = min(Min·2ⁿ, Max). The
// deterministic lower bound of d/2 guarantees a minimum spacing between
// attempts (no hot-spin even with adversarial jitter), while the random
// upper half spreads simultaneous reconnect storms after a broker failure.
//
// Every field must be set.
type Backoff struct {
	// Min is the attempt-0 delay.
	Min time.Duration
	// Max caps the exponential growth.
	Max time.Duration
	// Rand supplies jitter in [0,1); NewJitter gives each client its own
	// deterministic source, so redialling clients never contend on the
	// global math/rand source's mutex during a reconnect storm (the exact
	// moment backoff matters).
	Rand func() float64
}

// NewJitter returns a deterministic jitter source for Backoff.Rand, seeded
// from seed (a zero seed selects a fixed non-zero constant). The returned
// function is not safe for concurrent use; give each client its own and call
// it under whatever lock serializes that client's redials.
func NewJitter(seed int64) func() float64 {
	s := uint64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53)
	}
}

// Delay returns the wait before redial attempt n (0-based). Negative
// attempts are treated as 0.
func (b Backoff) Delay(attempt int) time.Duration {
	min, max := b.Min, b.Max
	if min > max {
		min = max
	}
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(b.Rand()*float64(d-half))
}
