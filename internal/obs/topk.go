package obs

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/hotstate"
	"github.com/dynamoth/dynamoth/internal/metrics"
)

// DefaultSampleShift makes the table count one publication in 16: a
// compromise between fidelity on hot channels (the ones the read-outs exist
// to surface) and per-publish cost on the fan-out path.
const DefaultSampleShift = 4

// DefaultLatencyTopKCap bounds the distinct channels the table holds. CLOCK
// eviction keeps the hot ones — exactly the set both read-outs exist to
// surface — so the cap costs accuracy only on channels too cold to rank.
const DefaultLatencyTopKCap = 4096

// Sampled reports whether call n (from 0) of a shared counter is sampled at
// one in 2^shift: one n in every block of 2^shift values, at an offset that a
// splitmix64 mix of the block index picks, so traffic that cycles channels in
// step with the blocks cannot put every sample on one channel.
func Sampled(n, shift uint64) bool {
	z := n>>shift + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return n&(1<<shift-1) == (z^z>>31)>>(64-shift)
}

// channelBuckets is the per-channel histogram resolution: 28 factor-two
// buckets from 1µs to ~4.5min — coarse quantiles, but per-channel state stays
// at 28 counters, which is what lets the table hold thousands of channels.
const channelBuckets = 28

// TopK is the node's one sampled per-channel table. One publication in
// 2^shift (Sampled) lands in its channel's entry: Record counts it, Observe
// counts it and records its delivery latency. Two read-outs rank the
// entries, each over the window since its own previous call: Top by publish
// rate (the hot channels) and Slowest by p99 contribution (the slow channels).
//
// Record and Observe are safe on the publish hot path: one atomic add plus,
// on the sampled subset, one sharded cache hit and a counter (and bucket)
// increment — no allocation once a channel has an entry. The channel set is
// capacity-bounded: cold channels are evicted and idle ones dropped at
// read-out, so the table holds O(cap) state regardless of namespace size.
type TopK struct {
	shift   uint64 // sample one publication in 2^shift
	n       atomic.Uint64
	entries *hotstate.Cache[string, *channelEntry]

	// snapMu serialises the read-outs: they move the window baselines kept
	// in the entries and drop idle entries. idleScratch is reused so a
	// steady-state Top allocates nothing.
	snapMu      sync.Mutex
	idleScratch []string
	lastTop     time.Time // start of Top's window
	now         func() time.Time
}

// channelEntry is one channel's row in the table.
type channelEntry struct {
	pubs atomic.Uint64      // sampled publications, stamped or not
	lat  *metrics.Histogram // sampled latencies of stamped publications

	// Where each read-out's previous call left this entry (guarded by
	// snapMu). A channel evicted and re-created starts both from zero.
	topBase  uint64
	slowBase metrics.Counts
}

// idle reports whether neither read-out has anything left to report for e.
// An entry with no count yet is still being created, not idle.
func (e *channelEntry) idle() bool {
	p := e.pubs.Load()
	return p != 0 && p == e.topBase && e.lat.Count() == e.slowBase.Count()
}

// NewTopK creates a table sampling one publication in 2^sampleShift
// (DefaultSampleShift when negative) holding at most DefaultLatencyTopKCap
// channels. now supplies time for rate windows (nil = wall clock).
func NewTopK(sampleShift int, now func() time.Time) *TopK {
	return newTopK(sampleShift, DefaultLatencyTopKCap, now)
}

// NewLatencyTopK is NewTopK: it returns the same table, whose Observe feeds
// both read-outs.
func NewLatencyTopK(sampleShift int, now func() time.Time) *TopK {
	return NewTopK(sampleShift, now)
}

// newTopK is NewTopK with an explicit channel bound (<=0 = unbounded).
func newTopK(sampleShift, cap int, now func() time.Time) *TopK {
	if sampleShift < 0 {
		sampleShift = DefaultSampleShift
	}
	if now == nil {
		now = time.Now
	}
	return &TopK{
		shift:   uint64(sampleShift),
		now:     now,
		entries: hotstate.New[string, *channelEntry](hotstate.Config[string, *channelEntry]{Capacity: cap}),
		lastTop: now(),
	}
}

// Record notes one publication on channel that carries no latency (sampled).
func (t *TopK) Record(channel string) {
	if e := t.sample(channel); e != nil {
		e.pubs.Add(1)
	}
}

// Observe notes one publication on channel delivered d after it was sent
// (sampled).
func (t *TopK) Observe(channel string, d time.Duration) {
	if e := t.sample(channel); e != nil {
		e.lat.Observe(d)
		e.pubs.Add(1)
	}
}

// sample returns channel's entry, creating it on first sight, for one
// publication in 2^shift, and nil for the others.
func (t *TopK) sample(channel string) *channelEntry {
	if !Sampled(t.n.Add(1)-1, t.shift) {
		return nil
	}
	if e, ok := t.entries.Get(channel); ok {
		return e
	}
	e := &channelEntry{lat: metrics.NewHistogram(time.Microsecond, time.Microsecond<<channelBuckets, channelBuckets)}
	t.entries.Upsert(channel, func(old *channelEntry, exists bool) (*channelEntry, bool) {
		if exists {
			e = old
			return old, false
		}
		return e, true
	})
	return e
}

// readOut visits every entry under snapMu with visit, which reports whether
// the entry is idle, then drops the idle ones. Deletion is deferred — Range
// holds the shard lock. A publication racing the delete just re-creates the
// entry.
func (t *TopK) readOut(visit func(ch string, e *channelEntry) (idle bool)) {
	idle := t.idleScratch[:0]
	t.entries.Range(func(ch string, e *channelEntry) bool {
		if visit(ch, e) {
			idle = append(idle, ch)
		}
		return true
	})
	for _, ch := range idle {
		t.entries.Delete(ch)
	}
	t.idleScratch = idle[:0]
}

// ChannelRate is one channel's estimated publish rate.
type ChannelRate struct {
	Channel string  `json:"channel"`
	Rate    float64 `json:"publishesPerSec"` // estimated publications/second
}

// Top returns up to k channels ordered by publish rate since the previous
// Top. See TopInto.
func (t *TopK) Top(k int) []ChannelRate { return t.TopInto(k, nil) }

// TopInto is Top reusing dst's capacity for the result — the allocation-free
// form for periodic scrape loops. Rates are measured since the previous
// Top/TopInto call (since table start on the first) over every publication,
// stamped or not, and scaled back up by the sampling factor.
func (t *TopK) TopInto(k int, dst []ChannelRate) []ChannelRate {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	now := t.now()
	elapsed := now.Sub(t.lastTop).Seconds()
	if elapsed <= 0 {
		elapsed = 1
	}
	t.lastTop = now
	scale := float64(uint64(1) << t.shift)
	rates := dst[:0]
	t.readOut(func(ch string, e *channelEntry) bool {
		p := e.pubs.Load()
		if p == e.topBase {
			return e.idle()
		}
		rates = append(rates, ChannelRate{Channel: ch, Rate: float64(p-e.topBase) * scale / elapsed})
		e.topBase = p
		return false
	})
	slices.SortFunc(rates, func(a, b ChannelRate) int {
		return cmp.Or(cmp.Compare(b.Rate, a.Rate), strings.Compare(a.Channel, b.Channel))
	})
	if len(rates) > k {
		rates = rates[:k]
	}
	return rates
}

// ChannelLatency is one channel's delivery-latency summary over the
// read-out window, ranked by Contribution.
type ChannelLatency struct {
	Channel string  `json:"channel"`
	Count   uint64  `json:"count"` // observations in the window (sample-scaled)
	P99     float64 `json:"p99Seconds"`
	// Contribution is P99 × Count: the tail-latency mass the channel adds to
	// the node, which ranks a moderately slow hot channel above a glacially
	// slow idle one.
	Contribution float64 `json:"contribution"`
}

// Slowest returns up to k channels ordered by p99 contribution since the
// previous Slowest call. Only Observe'd publications count; counts are
// scaled back up by the sampling factor.
func (t *TopK) Slowest(k int) []ChannelLatency {
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	scale := float64(uint64(1) << t.shift)
	var out []ChannelLatency
	t.readOut(func(ch string, e *channelEntry) bool {
		if e.lat.Count() == e.slowBase.Count() {
			return e.idle()
		}
		cum := e.lat.Counts()
		window := cum.Sub(e.slowBase)
		e.slowBase = cum
		p99 := window.Quantile(0.99).Seconds()
		count := uint64(float64(window.Count()) * scale)
		out = append(out, ChannelLatency{
			Channel:      ch,
			Count:        count,
			P99:          p99,
			Contribution: p99 * float64(count),
		})
		return false
	})
	slices.SortFunc(out, func(a, b ChannelLatency) int {
		return cmp.Or(cmp.Compare(b.Contribution, a.Contribution), strings.Compare(a.Channel, b.Channel))
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// CacheStats snapshots the channel-cache counters for metric export.
func (t *TopK) CacheStats() hotstate.Stats { return t.entries.Stats() }
