package metrics

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func newTestHistogram() *Histogram { return NewHistogram(time.Millisecond, time.Second, 30) }

// feed observes raw as microseconds: well beyond [1ms, 1s] on both sides, to
// exercise the edge buckets.
func feed(h *Histogram, raw []uint32) {
	for _, v := range raw {
		h.Observe(time.Duration(v) * time.Microsecond)
	}
}

func sameDistribution(t *testing.T, what string, got, want Counts) bool {
	t.Helper()
	if !slices.Equal(got.Buckets, want.Buckets) || got.Sum != want.Sum {
		t.Logf("%s: got %v sum %v, want %v sum %v", what, got.Buckets, got.Sum, want.Buckets, want.Sum)
		return false
	}
	return true
}

// TestCountsSubIsWhatCameBetween: the difference of two reads of one
// histogram equals the read-out of a fresh histogram fed only what was
// observed between them; a window knows no extremes.
func TestCountsSubIsWhatCameBetween(t *testing.T) {
	property := func(before, between []uint32) bool {
		h, fresh := newTestHistogram(), newTestHistogram()
		feed(h, before)
		a := h.Counts()
		feed(h, between)
		feed(fresh, between)
		window := h.Counts().Sub(a)
		if window.Min >= 0 || window.Max >= 0 {
			t.Logf("window claims extremes [%v, %v]", window.Min, window.Max)
			return false
		}
		return sameDistribution(t, "window", window, fresh.Counts())
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCountsSubRestarted: a bucket below its previous value means the
// histogram was dropped and re-created between the reads, so the whole of
// the later read is the window's — as is a first read with no predecessor.
func TestCountsSubRestarted(t *testing.T) {
	old := newTestHistogram()
	for i := 0; i < 5; i++ {
		old.Observe(10 * time.Millisecond)
	}
	old.Observe(500 * time.Millisecond)
	recreated := newTestHistogram()
	recreated.Observe(10 * time.Millisecond)
	recreated.Observe(20 * time.Millisecond)
	recreated.Observe(500 * time.Millisecond)
	recreated.Observe(500 * time.Millisecond)
	now := recreated.Counts()
	if w := now.Sub(old.Counts()); w.Count() != 4 || !sameDistribution(t, "restarted", w, now) {
		t.Fatalf("restarted window = %v, want all of %v", w.Buckets, now.Buckets)
	}
	if w := now.Sub(Counts{}); w.Count() != 4 || !sameDistribution(t, "first", w, now) {
		t.Fatalf("first window = %v, want all of %v", w.Buckets, now.Buckets)
	}
}

// TestCountsQuantileRule pins the one quantile rule on the factor-two layout
// the per-channel tracker uses: the holding bucket's upper
// bound, clamped to the extremes where they are known.
func TestCountsQuantileRule(t *testing.T) {
	h := NewHistogram(time.Microsecond, time.Microsecond<<28, 28)
	for i := 0; i < 100; i++ {
		h.Observe(20 * time.Millisecond)
	}
	// 20 ms lies in the 16.4–32.8 ms bucket. A window has no extremes, so
	// it reports the bound; the histogram's own read-out knows nothing
	// exceeded 20 ms.
	if got := h.Counts().Sub(Counts{}).Quantile(0.99); got < 32*time.Millisecond || got > 33*time.Millisecond {
		t.Errorf("window p99 = %v, want the ~32.8ms bucket bound", got)
	}
	if got := h.Quantile(0.99); got != 20*time.Millisecond {
		t.Errorf("p99 = %v, want the observed maximum 20ms", got)
	}
}

// TestHistogramBucketBounds: every duration lands in exactly one bucket
// whose upper bound is not below it, and the out-of-range ones clamp into
// the edge buckets.
func TestHistogramBucketBounds(t *testing.T) {
	const buckets = 28
	for _, d := range []time.Duration{-time.Second, 0, time.Microsecond, 1500 * time.Nanosecond,
		time.Millisecond, 20 * time.Millisecond, time.Hour} {
		h := NewHistogram(time.Microsecond, time.Microsecond<<buckets, buckets)
		h.Observe(d)
		c := h.Counts()
		i := slices.Index(c.Buckets, 1)
		if i < 0 || c.Count() != 1 {
			t.Fatalf("Observe(%v): buckets %v", d, c.Buckets)
		}
		if up := c.Upper(i); d.Seconds() > up {
			t.Errorf("Observe(%v) landed in bucket %d, upper bound %vs", d, i, up)
		}
		if d <= time.Microsecond && i != 0 || d == time.Hour && i != buckets-1 {
			t.Errorf("Observe(%v) landed in bucket %d, want an edge bucket", d, i)
		}
	}
}
