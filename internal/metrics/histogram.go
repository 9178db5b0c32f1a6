// Package metrics provides the measurement primitives used by the Dynamoth
// load-monitoring pipeline and the experiment harness: the one latency
// histogram (with its windows, merges and quantiles) every in-process site
// records into, and printable time series (the data behind every figure in
// the paper's evaluation).
package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// layout places durations into geometric buckets: bucket i starts at
// min·e^(i·logStep), and the two edge buckets absorb everything outside the
// range. It is the only bucket arithmetic in the tree.
type layout struct {
	min     float64 // seconds
	logMin  float64
	logStep float64
}

// bound is bucket i's lower bound (bucket i-1's upper bound) in seconds.
func (l layout) bound(i int) float64 {
	return math.Exp(l.logMin + float64(i)*l.logStep)
}

// Histogram is a log-bucketed duration histogram, cheap enough to sit on the
// publish hot path and lock-free, so any number of goroutines (or reactor
// shards) may Observe and read it at once. Buckets grow geometrically from
// Min to Max; values outside the range clamp to the edge buckets. The zero
// value is unusable; create with NewHistogram.
type Histogram struct {
	// The extremes change only while a record is being set, but every
	// observation reads them; sum is written by every observation. First
	// and last, they lie 64 bytes apart — never on one cache line, the
	// allocator aligning the struct to 16 bytes — with only fields that
	// never change between them.
	minSeen atomic.Int64 // nanoseconds; negative until the first observation
	maxSeen atomic.Int64
	layout
	counts []atomic.Uint64
	sum    atomic.Int64 // nanoseconds: integer, so sums of stage legs stay exact
}

// NewHistogram creates a histogram covering [min, max] with the given number
// of geometric buckets. Typical latency use: NewHistogram(time.Millisecond,
// 10*time.Second, 200) gives ~4.7% bucket resolution.
func NewHistogram(min, max time.Duration, buckets int) *Histogram {
	if min <= 0 || max <= min || buckets < 2 {
		panic("metrics: invalid histogram bounds")
	}
	lo := min.Seconds()
	hi := max.Seconds()
	h := &Histogram{
		layout: layout{
			min:     lo,
			logMin:  math.Log(lo),
			logStep: (math.Log(hi) - math.Log(lo)) / float64(buckets),
		},
		counts: make([]atomic.Uint64, buckets),
	}
	h.minSeen.Store(-1)
	h.maxSeen.Store(-1)
	return h
}

// Observe records one duration (negative ones as zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	if s := d.Seconds(); s > h.min {
		i = int((math.Log(s) - h.logMin) / h.logStep)
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
	}
	// Extremes before the count, and Counts reads them in the opposite
	// order: every observation a read-out counts lies inside its extremes.
	ns := int64(d)
	for cur := h.maxSeen.Load(); ns > cur && !h.maxSeen.CompareAndSwap(cur, ns); {
		cur = h.maxSeen.Load()
	}
	for cur := h.minSeen.Load(); (cur < 0 || ns < cur) && !h.minSeen.CompareAndSwap(cur, ns); {
		cur = h.minSeen.Load()
	}
	h.sum.Add(ns)
	h.counts[i].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Mean returns the mean observed duration, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Max returns the largest observed duration, or 0 with no observations.
func (h *Histogram) Max() time.Duration { return time.Duration(max(h.maxSeen.Load(), 0)) }

// Min returns the smallest observed duration, or 0 with no observations.
func (h *Histogram) Min() time.Duration { return time.Duration(max(h.minSeen.Load(), 0)) }

// Quantile is Counts().Quantile(q). Read several figures of one instant from
// one Counts instead.
func (h *Histogram) Quantile(q float64) time.Duration { return h.Counts().Quantile(q) }

// Counts reads the histogram out in a single pass.
func (h *Histogram) Counts() Counts {
	c := Counts{Buckets: make([]uint64, len(h.counts)), layout: h.layout}
	for i := range h.counts {
		c.Buckets[i] = h.counts[i].Load()
	}
	c.Sum = time.Duration(h.sum.Load())
	c.Min = time.Duration(h.minSeen.Load())
	c.Max = time.Duration(h.maxSeen.Load())
	return c
}

// Counts is one read-out of a duration distribution — a histogram at an
// instant or a window between two instants (Sub) — and the one place a
// quantile is computed from buckets. The layout always comes from a
// Histogram. Counts values share bucket slices and are not modified by their
// methods.
type Counts struct {
	// Buckets holds the observations per bucket (not cumulative).
	Buckets []uint64
	// Sum is the total of all observations.
	Sum time.Duration
	// Min and Max are the observed extremes; negative where unknown (an
	// empty distribution, or a window: a histogram keeps only the extremes
	// of its whole life).
	Min, Max time.Duration
	layout
}

// Count returns the number of observations.
func (c Counts) Count() uint64 {
	var n uint64
	for _, b := range c.Buckets {
		n += b
	}
	return n
}

// Upper returns bucket i's upper bound in seconds: +Inf for the last bucket,
// which absorbs everything above the layout's range (the Prometheus `le`
// convention).
func (c Counts) Upper(i int) float64 {
	if i == len(c.Buckets)-1 {
		return math.Inf(1)
	}
	return c.bound(i + 1)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding that rank, so a tail is never understated, clamped to the
// observed extremes where they are known. The edge buckets absorb
// out-of-range observations and their bounds can lie arbitrarily far from
// any real sample, so they report the known extreme itself.
func (c Counts) Quantile(q float64) time.Duration {
	total := c.Count()
	if total == 0 || q <= 0 || q > 1 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	last := len(c.Buckets) - 1
	i := 0
	for cum := c.Buckets[0]; cum < rank && i < last; cum += c.Buckets[i] {
		i++
	}
	est := time.Duration(c.bound(i+1) * float64(time.Second))
	if (i == 0 && c.Min >= 0) || est < c.Min {
		est = c.Min
	}
	if c.Max >= 0 && (i == last || est > c.Max) {
		est = c.Max
	}
	return est
}

// Sub returns the window between an earlier read-out of the same histogram
// and this one: a scrape or report interval. A bucket below its previous
// value means the histogram was dropped and re-created in between (a cache
// eviction), so the whole of c is this window's. A window's extremes are
// unknown.
func (c Counts) Sub(prev Counts) Counts {
	out := c
	out.Min, out.Max = -1, -1
	if len(prev.Buckets) != len(c.Buckets) {
		return out
	}
	window := make([]uint64, len(c.Buckets))
	for i, n := range c.Buckets {
		if n < prev.Buckets[i] {
			return out
		}
		window[i] = n - prev.Buckets[i]
	}
	out.Buckets, out.Sum = window, c.Sum-prev.Sum
	return out
}
