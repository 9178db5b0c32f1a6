package lla

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/metrics"
)

// RegionBuckets is the per-region delivery-latency histogram resolution: 28
// factor-two buckets from 1µs to ~4.5 minutes — the layout the node's
// per-channel latency tracker uses, computed by the same metrics.Histogram
// on every server, so one bucket index means the same latency range
// everywhere.
const RegionBuckets = 28

func newRegionHist() *metrics.Histogram {
	return metrics.NewHistogram(time.Microsecond, time.Microsecond<<RegionBuckets, RegionBuckets)
}

// DefaultRegionCap bounds the distinct subscriber regions a tracker holds.
// Deployments have few regions (the King dataset clusters into continents);
// the cap only guards against a client declaring garbage regions. Beyond it,
// observations fold into the RegionOverflow pseudo-region.
const DefaultRegionCap = 64

// RegionOverflow is the pseudo-region that absorbs observations once the
// region cap is reached, so the load is visible even when unattributable.
const RegionOverflow = "+overflow"

// RegionStats is one subscriber region's delivery-latency digest over a
// report window: a compact histogram plus count/sum/max so the balancer can
// merge windows from many servers without losing tail shape.
type RegionStats struct {
	Region string `json:"region"`
	Count  uint64 `json:"count"`
	// SumMs/MaxMs/P99Ms are milliseconds; P99 is metrics.Counts.Quantile
	// over Buckets: the upper bound of the bucket holding the window's
	// 99th-percentile observation, never above MaxMs.
	SumMs float64 `json:"sumMs"`
	MaxMs float64 `json:"maxMs"`
	P99Ms float64 `json:"p99Ms"`
	// Buckets are the window's observation counts per factor-two bucket
	// from 1µs up (see RegionBuckets).
	Buckets []uint64 `json:"buckets,omitempty"`
}

// regionLayout is an empty read-out carrying the region histogram's layout:
// what a RegionStats off the wire is rebuilt on.
var regionLayout = newRegionHist().Counts()

// counts rebuilds the distribution a RegionStats digests. A report is input
// from outside the program, so whatever bucket array it carries is cut or
// padded to the layout's length.
func (s RegionStats) counts() metrics.Counts {
	c := regionLayout
	c.Buckets = make([]uint64, RegionBuckets)
	copy(c.Buckets, s.Buckets)
	c.Sum = time.Duration(s.SumMs * float64(time.Millisecond))
	c.Min = -1
	c.Max = time.Duration(s.MaxMs * float64(time.Millisecond))
	return c
}

// statsFrom digests one region's distribution (ok false when it is empty).
func statsFrom(region string, c metrics.Counts) (RegionStats, bool) {
	total := c.Count()
	if total == 0 {
		return RegionStats{}, false
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return RegionStats{
		Region:  region,
		Count:   total,
		SumMs:   ms(c.Sum),
		MaxMs:   ms(c.Max),
		P99Ms:   ms(c.Quantile(0.99)),
		Buckets: c.Buckets,
	}, true
}

// regionEntry is one region's accumulation: the cumulative histogram (Observe
// runs on the broker's fan-out path) and, beside it, the maximum since the
// last drain — a histogram keeps only the extremes of its whole life. shipped
// is the read-out already sent in earlier reports, touched only under the
// tracker's drain lock.
type regionEntry struct {
	hist    *metrics.Histogram
	winMax  atomic.Int64 // nanoseconds
	shipped metrics.Counts
}

func newRegionEntry() *regionEntry { return &regionEntry{hist: newRegionHist()} }

func (e *regionEntry) observe(d time.Duration) {
	for cur := e.winMax.Load(); int64(d) > cur && !e.winMax.CompareAndSwap(cur, int64(d)); {
		cur = e.winMax.Load()
	}
	e.hist.Observe(d)
}

// regionTracker accumulates per-subscriber-region delivery latencies. The
// observe path is lock-free after a region's first observation (one RLock'd
// map hit plus atomic adds); draining a report window happens under drainMu.
type regionTracker struct {
	cap   int
	delay func(region string) time.Duration // optional WAN-delay model

	mu      sync.RWMutex
	regions map[string]*regionEntry

	drainMu sync.Mutex
}

func newRegionTracker(cap int, delay func(string) time.Duration) *regionTracker {
	if cap <= 0 {
		cap = DefaultRegionCap
	}
	return &regionTracker{
		cap:     cap,
		delay:   delay,
		regions: make(map[string]*regionEntry),
	}
}

// Observe records one delivery to a subscriber in region, d after publish.
// When a WAN-delay model is configured the modeled region delay is added —
// in-process deployments measure loopback fan-out, so the model is what puts
// the geography back into the signal.
func (t *regionTracker) Observe(region string, d time.Duration) {
	if region == "" {
		return
	}
	if t.delay != nil {
		d += t.delay(region)
	}
	t.mu.RLock()
	e := t.regions[region]
	t.mu.RUnlock()
	if e == nil {
		t.mu.Lock()
		e = t.regions[region]
		if e == nil {
			if len(t.regions) >= t.cap {
				if e = t.regions[RegionOverflow]; e == nil {
					e = newRegionEntry()
					t.regions[RegionOverflow] = e
				}
			} else {
				e = newRegionEntry()
				t.regions[region] = e
			}
		}
		t.mu.Unlock()
	}
	e.observe(d)
}

// Drain returns the per-region stats accumulated since the previous Drain
// (the report-window semantics buildReport needs) and advances the window.
func (t *regionTracker) Drain() []RegionStats {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.regions) == 0 {
		return nil
	}
	out := make([]RegionStats, 0, len(t.regions))
	for region, e := range t.regions {
		cum := e.hist.Counts()
		window := cum.Sub(e.shipped)
		e.shipped = cum
		window.Max = time.Duration(e.winMax.Swap(0))
		if s, ok := statsFrom(region, window); ok {
			out = append(out, s)
		}
	}
	sortRegionStats(out)
	return out
}

// Snapshot returns the cumulative (since-start) per-region stats without
// disturbing the report window — the non-destructive read /debug/latency
// uses.
func (t *regionTracker) Snapshot() []RegionStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.regions) == 0 {
		return nil
	}
	out := make([]RegionStats, 0, len(t.regions))
	for region, e := range t.regions {
		if s, ok := statsFrom(region, e.hist.Counts()); ok {
			out = append(out, s)
		}
	}
	sortRegionStats(out)
	return out
}

func sortRegionStats(s []RegionStats) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Region < s[j-1].Region; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// MergeRegionStats folds b into a (matching regions merge bucket-wise; the
// merged P99 is recomputed from the merged buckets). The balancer uses this
// to aggregate one region's latency across every server reporting it.
func MergeRegionStats(a, b RegionStats) RegionStats {
	merged, ok := statsFrom(a.Region, a.counts().Add(b.counts()))
	if !ok {
		// Neither side carried buckets; fall back to the scalar fields.
		merged = RegionStats{Region: a.Region, Count: a.Count + b.Count,
			SumMs: a.SumMs + b.SumMs, MaxMs: max(a.MaxMs, b.MaxMs), P99Ms: max(a.P99Ms, b.P99Ms)}
	}
	return merged
}
