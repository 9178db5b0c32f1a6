package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// rng is SplitMix64: tiny, seedable, copyable by value (the ramp pre-walks
// its channel draws on a copy), and good enough for channel choice.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// chooser draws channel indices: uniform, or Zipf(1.0) by inverse CDF
// (index 0 is the hottest channel).
type chooser struct {
	n   int
	cdf []float64 // nil for uniform
}

func newChooser(n int, zipf bool) chooser {
	c := chooser{n: n}
	if !zipf {
		return c
	}
	c.cdf = make([]float64, n)
	sum := 0.0
	for i := range c.cdf {
		sum += 1 / float64(i+1)
		c.cdf[i] = sum
	}
	for i := range c.cdf {
		c.cdf[i] /= sum
	}
	return c
}

func (c chooser) draw(r *rng) int {
	if c.cdf == nil {
		return int(r.next() % uint64(c.n))
	}
	i := sort.SearchFloat64s(c.cdf, r.float())
	if i >= c.n {
		i = c.n - 1
	}
	return i
}

// ramp is an open-loop schedule whose rate rises linearly from lo to hi
// publishes/s over dur. Tick i's intended instant solves
// lo·t + (hi−lo)·t²/(2·dur) = i.
type ramp struct {
	lo, hi float64
	dur    time.Duration
}

func (r ramp) at(i uint64) time.Duration {
	a := (r.hi - r.lo) / r.dur.Seconds()
	if a == 0 {
		return time.Duration(float64(i) / r.lo * float64(time.Second))
	}
	t := (-r.lo + math.Sqrt(r.lo*r.lo+2*a*float64(i))) / a
	return time.Duration(t * float64(time.Second))
}

// rateAt is the offered rate at offset t into the ramp.
func (r ramp) rateAt(t time.Duration) float64 {
	return r.lo + (r.hi-r.lo)*t.Seconds()/r.dur.Seconds()
}

// quantile returns the q-quantile of sorted (nearest rank, 0 for empty).
func quantile(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// median of a float slice (0 for empty); vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

// windowP99Median is latency_p99's estimator: the median over windows of
// each window's p99. One scheduler hiccup lands in one window and moves the
// median not at all, where a whole-phase p99 would jump.
func windowP99Median(windows [][]uint32) float64 {
	p99s := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		slices.Sort(w)
		p99s = append(p99s, float64(quantile(w, 0.99)))
	}
	return median(p99s)
}

// rampWindow is one 250 ms slice of the ramp as the controller saw it once
// the window's deliveries had had their chance to arrive.
type rampWindow struct {
	Due       uint64 // deliveries the schedule owed for this window
	Delivered uint64 // deliveries that had arrived by evaluation time
	Slow      uint64 // of those, how many took longer than the SLO
}

// breaches applies the SLO to one window: its intended-time p99 is over the
// limit (more than 1% of deliveries slow), or under 99.9% of what was due
// had arrived.
func (w rampWindow) breaches() bool {
	if w.Due == 0 {
		return false
	}
	return w.Slow*100 > w.Delivered || w.Delivered*1000 < w.Due*999
}

// kneeRun is how many consecutive windows must breach before the ramp is
// held to have broken: one second. Past the real knee the backlog only
// grows, so the breach persists; a scheduler or GC hiccup does not.
const kneeRun = 4

// kneeWindow returns the index of the first window from which kneeRun
// consecutive windows breach the SLO, or -1 when the ramp never breaks.
func kneeWindow(ws []rampWindow) int {
	run := 0
	for i, w := range ws {
		if !w.breaches() {
			run = 0
			continue
		}
		if run++; run == kneeRun {
			return i - kneeRun + 1
		}
	}
	return -1
}
