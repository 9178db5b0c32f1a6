package loadgen

import (
	"math"
	"testing"
	"time"
)

// TestScheduleDeterminism: a plan is a pure function of (rate, phase) — two
// drivers agree on it without communicating — and the phase shifts the whole
// plan by exactly itself, so staggered publishers keep the same spacing.
func TestScheduleDeterminism(t *testing.T) {
	const phase = 11 * time.Millisecond
	a, b, base := NewSchedule(37.5, phase), NewSchedule(37.5, phase), NewSchedule(37.5, 0)
	for i := uint64(0); i < 10_000; i++ {
		if x, y := a.At(i), b.At(i); x != y {
			t.Fatalf("tick %d diverged: %v vs %v", i, x, y)
		}
		if x, y := a.At(i), base.At(i)+phase; x != y {
			t.Fatalf("tick %d: phased %v, unphased+phase %v", i, x, y)
		}
	}
}

// TestScheduleMonotone: intended instants strictly increase.
func TestScheduleMonotone(t *testing.T) {
	s := NewSchedule(1000, 0)
	prev := time.Duration(-1)
	for i := uint64(0); i < 50_000; i++ {
		at := s.At(i)
		if at <= prev {
			t.Fatalf("tick %d not increasing: %v after %v", i, at, prev)
		}
		prev = at
	}
}

// TestScheduleRateAccuracy pins the rate-drift bugfix: tick i lands at i/rate
// with no accumulated truncation. Over a long horizon the planned tick count
// matches rate×duration, and at an integer rate every rate-th tick lands
// exactly on a whole second — a chained 333 333 333 ns period at 3/s, the
// per-tick arithmetic this replaces, is 1 ns short every second.
func TestScheduleRateAccuracy(t *testing.T) {
	horizon := 10_000 * time.Second
	for _, rate := range []float64{3, 7, 9.7, 50} {
		s := NewSchedule(rate, 0)
		var n uint64
		for s.At(n) <= horizon {
			n++
		}
		if got, want := float64(n), rate*horizon.Seconds(); math.Abs(got-want) > 0.01*want {
			t.Errorf("rate %v: %v ticks over %v, want %v ±1%%", rate, got, horizon, want)
		}
	}
	s := NewSchedule(3, 0)
	for sec := uint64(1); sec <= 10_000; sec++ {
		if at, want := s.At(3*sec), time.Duration(sec)*time.Second; at != want {
			t.Fatalf("tick %d at %v, want %v", 3*sec, at, want)
		}
	}
}

func TestStampRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		intended, actual time.Duration
		size             int
	}{
		{0, 0, 64},
		{time.Nanosecond, 2 * time.Nanosecond, 0},
		{1234567890 * time.Nanosecond, 1234567999 * time.Nanosecond, 200},
		{time.Hour, time.Hour + time.Millisecond, 24},
	} {
		p := AppendStamp(nil, tc.intended, tc.actual, tc.size)
		if tc.size > len(p) {
			t.Fatalf("payload shorter than size: %d < %d", len(p), tc.size)
		}
		if p[0] < '0' || p[0] > '9' {
			t.Fatalf("stamp not digit-led: %q", p)
		}
		in, ac, ok := ParseStamp(p)
		if !ok || in != tc.intended || ac != tc.actual {
			t.Fatalf("roundtrip %v/%v: got %v/%v ok=%v", tc.intended, tc.actual, in, ac, ok)
		}
	}
	for _, bad := range [][]byte{nil, []byte(""), []byte("x123 456 "), []byte("123"), []byte("123 "), []byte("123 456")} {
		if _, _, ok := ParseStamp(bad); ok {
			t.Fatalf("ParseStamp accepted %q", bad)
		}
	}
}
