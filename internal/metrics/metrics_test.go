package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasicStats(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Second, 200)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count=%d", got)
	}
	mean := h.Mean()
	if mean < 45*time.Millisecond || mean > 56*time.Millisecond {
		t.Fatalf("Mean=%v, want ~50.5ms", mean)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("Max=%v", got)
	}
	if got := h.Min(); got != time.Millisecond {
		t.Fatalf("Min=%v", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Fatalf("P50=%v, want ~50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90*time.Millisecond || p99 > 110*time.Millisecond {
		t.Fatalf("P99=%v, want ~99ms", p99)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(time.Millisecond, time.Second, 50)
	h.Observe(-5 * time.Millisecond) // below zero clamps to 0
	h.Observe(time.Microsecond)      // below min
	h.Observe(time.Minute)           // above max
	if got := h.Count(); got != 3 {
		t.Fatalf("Count=%d", got)
	}
	if got := h.Quantile(1.0); got > time.Minute {
		t.Fatalf("Quantile(1.0)=%v exceeds max seen", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(time.Millisecond, time.Second, 10)
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram stats not all zero")
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := NewHistogram(time.Millisecond, 10*time.Second, 100)
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(1+i%500) * time.Millisecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile %f (%v) < quantile before it (%v)", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramInvalidBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid bounds")
		}
	}()
	NewHistogram(time.Second, time.Millisecond, 10)
}

// TestHistogramConcurrent: eight writers on one lock-free histogram lose
// nothing — count and sum are conserved exactly (run under -race).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(time.Millisecond, time.Second, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i%100+1) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	c := h.Counts()
	if h.Count() != 8000 || c.Count() != 8000 {
		t.Fatalf("Count=%d, read-out %d, want 8000", h.Count(), c.Count())
	}
	// Each writer observes 1..100 ms ten times over.
	if want := 8 * 10 * 5050 * time.Millisecond; c.Sum != want {
		t.Fatalf("Sum=%v, want %v", c.Sum, want)
	}
	if c.Min != time.Millisecond || c.Max != 100*time.Millisecond {
		t.Fatalf("extremes [%v, %v], want [1ms, 100ms]", c.Min, c.Max)
	}
}

func TestSeriesRecordAndTable(t *testing.T) {
	s := NewSeries("t", "players", "latency")
	s.Record(0, "players", 120)
	s.Record(0, "latency", 0.075)
	s.Record(10, "players", 240)
	s.Mark(10, "rebalance")

	if v, ok := s.Get(0, "players"); !ok || v != 120 {
		t.Fatalf("Get(0,players)=%f,%t", v, ok)
	}
	if _, ok := s.Get(10, "latency"); ok {
		t.Fatal("missing cell reported present")
	}
	if _, ok := s.Get(0, "nope"); ok {
		t.Fatal("unknown column reported present")
	}

	xs := s.Xs()
	if len(xs) != 2 || xs[0] != 0 || xs[1] != 10 {
		t.Fatalf("Xs=%v", xs)
	}

	table := s.Table()
	for _, want := range []string{"players", "latency", "120", "240", "0.07", "rebalance", "-"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestSeriesColumn(t *testing.T) {
	s := NewSeries("x", "y")
	for i := 0; i < 5; i++ {
		s.Record(float64(i), "y", float64(i*i))
	}
	xs, vals := s.Column("y")
	if len(xs) != 5 || len(vals) != 5 {
		t.Fatalf("Column lengths %d/%d", len(xs), len(vals))
	}
	for i := range xs {
		if xs[i] != float64(i) || vals[i] != float64(i*i) {
			t.Fatalf("Column[%d]=(%f,%f)", i, xs[i], vals[i])
		}
	}
}

func TestSeriesUnknownColumnPanics(t *testing.T) {
	s := NewSeries("x", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("Record on unknown column did not panic")
		}
	}()
	s.Record(0, "b", 1)
}

func TestSeriesMarkOnlyRow(t *testing.T) {
	s := NewSeries("x", "a")
	s.Mark(42, "event")
	xs := s.Xs()
	if len(xs) != 1 || xs[0] != 42 {
		t.Fatalf("Xs=%v", xs)
	}
	if marks := s.Marks(42); len(marks) != 1 || marks[0] != "event" {
		t.Fatalf("Marks=%v", marks)
	}
	if !strings.Contains(s.Table(), "event") {
		t.Fatal("table missing mark-only row")
	}
}

func TestSeriesConcurrent(t *testing.T) {
	s := NewSeries("x", "a", "b")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			col := "a"
			if w%2 == 1 {
				col = "b"
			}
			for i := 0; i < 500; i++ {
				s.Record(float64(i), col, float64(w))
				s.Mark(float64(i%10), "m")
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.Xs()); got != 500 {
		t.Fatalf("rows=%d, want 500", got)
	}
}
