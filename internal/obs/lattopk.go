package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/metrics"
)

// latTopKBuckets is the per-channel histogram resolution: 28 factor-two
// buckets from 1µs to ~4.5min — coarse quantiles, but per-channel state stays
// at 28 counters, which is what lets the tracker hold thousands of channels.
const latTopKBuckets = 28

// DefaultLatencyTopKCap bounds the distinct channels the latency tracker
// holds. Smaller than DefaultTopKCap because each entry carries a full
// bucket array rather than one counter.
const DefaultLatencyTopKCap = 4096

// newChannelHist creates one channel's compact latency histogram. It is
// cumulative; the scrape takes per-window differences.
func newChannelHist() *metrics.Histogram {
	return metrics.NewHistogram(time.Microsecond, time.Microsecond<<latTopKBuckets, latTopKBuckets)
}

// ChannelLatency is one channel's delivery-latency summary over the scrape
// window, ranked by Contribution.
type ChannelLatency struct {
	Channel string  `json:"channel"`
	Count   uint64  `json:"count"` // observations in the window (sample-scaled)
	P99     float64 `json:"p99Seconds"`
	// Contribution is P99 × Count: the tail-latency mass the channel adds to
	// the node, which ranks a moderately slow hot channel above a glacially
	// slow idle one.
	Contribution float64 `json:"contribution"`
}

// LatencyTopK tracks the slowest channels by p99 contribution with sampled,
// capacity-bounded per-channel histograms — the latency sibling of TopK.
// Observe is safe on the fan-out hot path: one atomic add plus, on the
// sampled subset, a sharded cache hit and one bucket increment.
type LatencyTopK struct {
	shift uint64
	n     atomic.Uint64
	hists *hotstate.Cache[string, *metrics.Histogram]

	snapMu      sync.Mutex
	prev, cur   map[string]metrics.Counts
	idleScratch []string
	lastTime    time.Time
	now         func() time.Time
}

// NewLatencyTopK creates a tracker sampling every 2^sampleShift-th
// observation (DefaultSampleShift when negative), holding at most
// DefaultLatencyTopKCap channels. now supplies time for rate windows
// (nil = wall clock).
func NewLatencyTopK(sampleShift int, now func() time.Time) *LatencyTopK {
	return NewLatencyTopKWithCap(sampleShift, DefaultLatencyTopKCap, now)
}

// NewLatencyTopKWithCap is NewLatencyTopK with an explicit channel bound
// (<=0 = unbounded).
func NewLatencyTopKWithCap(sampleShift, cap int, now func() time.Time) *LatencyTopK {
	if sampleShift < 0 {
		sampleShift = DefaultSampleShift
	}
	if now == nil {
		now = time.Now
	}
	t := &LatencyTopK{
		shift: uint64(sampleShift),
		now:   now,
		hists: hotstate.New[string, *metrics.Histogram](hotstate.Config[string, *metrics.Histogram]{
			Capacity: cap,
		}),
		prev: make(map[string]metrics.Counts),
		cur:  make(map[string]metrics.Counts),
	}
	t.lastTime = now()
	return t
}

// Observe notes one delivery latency on channel (sampled).
func (t *LatencyTopK) Observe(channel string, d time.Duration) {
	n := t.n.Add(1)
	if n&(1<<t.shift-1) != 0 {
		return
	}
	if h, ok := t.hists.Get(channel); ok {
		h.Observe(d)
		return
	}
	h := newChannelHist()
	t.hists.Upsert(channel, func(old *metrics.Histogram, exists bool) (*metrics.Histogram, bool) {
		if exists {
			h = old
			return old, false
		}
		return h, true
	})
	h.Observe(d)
}

// Top returns up to k channels ordered by p99 contribution since the
// previous scrape. See TopInto.
func (t *LatencyTopK) Top(k int) []ChannelLatency { return t.TopInto(k, nil) }

// TopInto is Top reusing dst's capacity for the result. Counts are measured
// since the previous Top/TopInto call and scaled back up by the sampling
// factor; channels idle for a full window are dropped from the tracker.
func (t *LatencyTopK) TopInto(k int, dst []ChannelLatency) []ChannelLatency {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	scale := float64(uint64(1) << t.shift)
	out := dst[:0]
	clear(t.cur)
	idle := t.idleScratch[:0]
	t.hists.Range(func(ch string, h *metrics.Histogram) bool {
		cum := h.Counts()
		last, seen := t.prev[ch]
		window := cum.Sub(last)
		total := window.Count()
		if total == 0 && seen {
			idle = append(idle, ch)
			return true
		}
		t.cur[ch] = cum
		if total == 0 {
			return true
		}
		p99 := window.Quantile(0.99).Seconds()
		count := uint64(float64(total) * scale)
		out = append(out, ChannelLatency{
			Channel:      ch,
			Count:        count,
			P99:          p99,
			Contribution: p99 * float64(count),
		})
		return true
	})
	for _, ch := range idle {
		t.hists.Delete(ch)
	}
	t.idleScratch = idle[:0]
	t.prev, t.cur = t.cur, t.prev
	t.lastTime = t.now()
	slices.SortFunc(out, func(a, b ChannelLatency) int {
		switch {
		case a.Contribution > b.Contribution:
			return -1
		case a.Contribution < b.Contribution:
			return 1
		case a.Channel < b.Channel:
			return -1
		case a.Channel > b.Channel:
			return 1
		}
		return 0
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// CacheStats snapshots the channel-cache counters for metric export.
func (t *LatencyTopK) CacheStats() hotstate.Stats { return t.hists.Stats() }
