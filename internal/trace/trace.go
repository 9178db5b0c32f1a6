// Package trace is Dynamoth's control-plane flight recorder: a fixed-capacity
// lock-free ring buffer of reconfiguration events (plan triggers, pushes,
// switches, migrations, duplicates, failure detection and repair) with a
// span API for timed phases, derived dynamoth_reconfig_* metrics, and a
// per-rebalance timeline view served on the admin endpoints.
//
// The design constraints mirror the data plane's: appending an event costs
// zero heap allocations and takes no lock. Every slot is a cache line of
// atomic words guarded by a seqlock marker; strings (server IDs, channel
// names, static details) are interned into a copy-on-write table so the hot
// path only stores integer handles. Readers validate the marker before and
// after copying a slot and simply skip slots a writer is overwriting — a
// flight recorder tolerates losing an event under pathological contention,
// but never blocks the control plane and never tears a read.
package trace

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/metrics"
	"github.com/dynamoth/dynamoth/internal/obs"
)

// Kind identifies the type of a recorded event.
type Kind uint8

// Event kinds, covering the full reconfiguration lifecycle (§IV of the
// paper) and the failure path.
const (
	KindUnknown Kind = iota
	// KindTrigger marks a balancer planning round that decided to act;
	// Detail carries the planner's reason and thresholds, Value the maximum
	// load ratio observed (in millionths).
	KindTrigger
	// KindLoad is one LLA reading the trigger decision saw: Subject the
	// server, Value its load ratio (millionths), Aux its measured bytes/sec.
	KindLoad
	// KindPlanCompute is the planner invocation span (Value = duration ns).
	KindPlanCompute
	// KindPlanPush is one plan delivery to one server (Subject), a span.
	KindPlanPush
	// KindTWait records the time elapsed since the previous plan when a new
	// one is published (the T_wait throttle window, Value = duration ns).
	KindTWait
	// KindPlanApply marks a dispatcher installing a new plan; Subject is the
	// node, Aux the number of open transitions after the apply.
	KindPlanApply
	// KindSwitchSend is a dispatcher emitting a SWITCH notification for a
	// channel (Subject).
	KindSwitchSend
	// KindSwitchRecv is a client processing a SWITCH for a channel (Subject).
	KindSwitchRecv
	// KindMigrate is a client moving a subscription to the channel's new
	// holders (Subject = channel; Detail "switch" or "failover").
	KindMigrate
	// KindDrained marks a channel transition completing on a dispatcher
	// (old-holder forwarding can stop).
	KindDrained
	// KindDetect is a failure-detector verdict: Subject the dead server,
	// Detail the evidence (probe misses, report staleness).
	KindDetect
	// KindRepair is the plan-repair span after a failure: Subject the dead
	// server, Value the repair duration (ns), Aux the evacuated channel count.
	KindRepair
	// KindSpawn is a server boot span (Subject = new server).
	KindSpawn
	// KindRelease marks a server released back to the cloud.
	KindRelease
	// KindDialFail is a client dial failure (Subject = server).
	KindDialFail
	// KindRedial is a successful client reconnection (Subject = server).
	KindRedial
	// KindSubstitute marks a client failing over to a ring successor
	// (Subject = substitute server, Detail = channel).
	KindSubstitute
	// KindDuplicate marks one duplicate suppressed by a client's deduper
	// (Subject = channel, Value = 1). Timelines attribute it to the rebalance
	// that last migrated its channel.
	KindDuplicate
	// KindConnAccept marks one accepted broker connection (Subject =
	// remote address). Connection-layer kinds carry no plan ID and are
	// excluded from rebalance timeline attribution.
	KindConnAccept
	// KindConnClose marks one closed broker connection (Subject = remote
	// address, Detail = close reason, "" for an ordinary disconnect).
	KindConnClose
	// KindBackpressure marks a session disconnected for output-buffer
	// overflow (Subject = remote address, Value = buffered bytes, -1 when
	// the core tracks messages rather than bytes).
	KindBackpressure
	// KindReplay marks a client cursor resubscribe served from a broker
	// replay ring (Subject = channel, Detail the reason — "switch",
	// "failover", "redial" — Value = frames replayed, Aux = frames missed).
	KindReplay
	// KindReplayGap marks a definite, unrecoverable delivery gap: the ring
	// had already overwritten frames the client's cursor was owed (Subject =
	// channel, Value = frames lost).
	KindReplayGap

	kindCount // sentinel
)

// kindInfo is per-kind metadata: the JSON name, the emitting component, the
// log level of the slog twin, whether Value is a span duration, and the
// derived metric (if any) that the component's registry exports.
type kindInfo struct {
	name      string
	component string
	level     slog.Level
	span      bool   // Value holds a duration; export a histogram
	metric    string // base metric name ("" = no derived metric)
}

var kinds = [kindCount]kindInfo{
	KindUnknown:      {name: "unknown", component: "unknown", level: slog.LevelDebug},
	KindTrigger:      {name: "trigger", component: "balancer", level: slog.LevelInfo, metric: "dynamoth_reconfig_triggers"},
	KindLoad:         {name: "load", component: "balancer", level: slog.LevelDebug},
	KindPlanCompute:  {name: "plan_compute", component: "balancer", level: slog.LevelInfo, span: true, metric: "dynamoth_reconfig_plan_compute"},
	KindPlanPush:     {name: "plan_push", component: "balancer", level: slog.LevelInfo, span: true, metric: "dynamoth_reconfig_plan_push"},
	KindTWait:        {name: "t_wait", component: "balancer", level: slog.LevelInfo, span: true, metric: "dynamoth_reconfig_t_wait"},
	KindPlanApply:    {name: "plan_apply", component: "dispatcher", level: slog.LevelInfo, metric: "dynamoth_reconfig_plan_applies"},
	KindSwitchSend:   {name: "switch_send", component: "dispatcher", level: slog.LevelDebug, metric: "dynamoth_reconfig_switch_sent"},
	KindSwitchRecv:   {name: "switch_recv", component: "client", level: slog.LevelDebug},
	KindMigrate:      {name: "migrate", component: "client", level: slog.LevelInfo},
	KindDrained:      {name: "drained", component: "dispatcher", level: slog.LevelDebug, metric: "dynamoth_reconfig_drains"},
	KindDetect:       {name: "detect", component: "balancer", level: slog.LevelWarn, metric: "dynamoth_reconfig_failures_detected"},
	KindRepair:       {name: "repair", component: "balancer", level: slog.LevelWarn, span: true, metric: "dynamoth_reconfig_repair"},
	KindSpawn:        {name: "spawn", component: "balancer", level: slog.LevelInfo, span: true, metric: "dynamoth_reconfig_spawn"},
	KindRelease:      {name: "release", component: "balancer", level: slog.LevelInfo, metric: "dynamoth_reconfig_releases"},
	KindDialFail:     {name: "dial_fail", component: "client", level: slog.LevelWarn},
	KindRedial:       {name: "redial", component: "client", level: slog.LevelInfo},
	KindSubstitute:   {name: "substitute", component: "client", level: slog.LevelInfo},
	KindDuplicate:    {name: "duplicate", component: "client", level: slog.LevelDebug},
	KindConnAccept:   {name: "conn_accept", component: "broker", level: slog.LevelDebug},
	KindConnClose:    {name: "conn_close", component: "broker", level: slog.LevelDebug},
	KindBackpressure: {name: "backpressure", component: "broker", level: slog.LevelWarn},
	KindReplay:       {name: "replay", component: "client", level: slog.LevelInfo},
	KindReplayGap:    {name: "replay_gap", component: "client", level: slog.LevelWarn},
}

// String returns the kind's JSON name.
func (k Kind) String() string {
	if k >= kindCount {
		return "unknown"
	}
	return kinds[k].name
}

// Component returns the component that emits this kind.
func (k Kind) Component() string {
	if k >= kindCount {
		return "unknown"
	}
	return kinds[k].component
}

// KindByName resolves a JSON kind name (KindUnknown if not known).
func KindByName(name string) Kind {
	for k := Kind(1); k < kindCount; k++ {
		if kinds[k].name == name {
			return k
		}
	}
	return KindUnknown
}

// Event is one decoded flight-recorder entry.
type Event struct {
	// Seq is the global append sequence number (1-based, monotone).
	Seq uint64
	// Time is the event timestamp in unix nanoseconds (recorder clock).
	Time int64
	// Kind is the event type.
	Kind Kind
	// Plan is the plan version the event belongs to (0 = unattributed;
	// timelines attach such events to the enclosing rebalance by time).
	Plan uint64
	// Subject is the server or channel the event is about.
	Subject string
	// Detail is a short static annotation (reason, evidence, mode).
	Detail string
	// Value is the kind-specific primary value: a duration in nanoseconds
	// for span kinds, a count otherwise.
	Value int64
	// Aux is a secondary kind-specific value.
	Aux int64
}

// slot is one ring entry: a seqlock marker plus the event as atomic words, so
// concurrent writers and readers never race (all accesses are atomic) and a
// torn slot is detected by the marker changing mid-copy.
type slot struct {
	marker  atomic.Uint64 // published seq; 0 while a writer owns the slot
	time    atomic.Int64
	kind    atomic.Uint64
	plan    atomic.Uint64
	subject atomic.Uint64 // interned string handle
	detail  atomic.Uint64 // interned string handle
	value   atomic.Int64
	aux     atomic.Int64
}

// DefaultCapacity is the ring size when NewRecorder is given a non-positive
// capacity: at one event per control-plane action, 4096 entries hold hours of
// steady-state operation (~256 KiB of slots).
const DefaultCapacity = 4096

// maxInterned caps the string table; pathological inputs (unbounded distinct
// details) degrade to an ellipsis handle instead of growing without bound.
const maxInterned = 8192

// Recorder is the flight recorder. Appends are lock-free and allocation-free;
// reads (Events, the HTTP handlers) are concurrent-safe snapshots. The zero
// value is not usable — use NewRecorder. All methods are nil-safe: a nil
// *Recorder records nothing, so instrumented components need no guards.
type Recorder struct {
	mask  uint64
	slots []slot
	next  atomic.Uint64 // last claimed sequence number

	// interning: forward map and reverse table, both copy-on-write behind
	// atomic pointers so the hot path takes no lock on a hit.
	internMu  sync.Mutex
	internMap atomic.Pointer[map[string]uint64]
	internTab atomic.Pointer[[]string]

	// derived metrics, updated on every Record: per-kind event counts, plus
	// span-duration histograms for span kinds.
	counts [kindCount]atomic.Uint64
	hists  [kindCount]*metrics.Histogram

	logger atomic.Pointer[slog.Logger]
	nowFn  atomic.Pointer[func() time.Time]
}

// Span-duration histogram range: 1 µs (in-process plan compute) to 60 s
// (cloud boot), 144 log buckets ≈ 13% resolution.
const (
	spanHistMin     = time.Microsecond
	spanHistMax     = 60 * time.Second
	spanHistBuckets = 144
)

// NewRecorder creates a flight recorder with the given capacity (rounded up
// to a power of two; <= 0 selects DefaultCapacity). The recorder stamps
// events with time.Now until SetNow installs another time source.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	r := &Recorder{
		mask:  uint64(size - 1),
		slots: make([]slot, size),
	}
	m := make(map[string]uint64)
	tab := []string{"", "…"}
	m[""] = 0
	m["…"] = 1
	r.internMap.Store(&m)
	r.internTab.Store(&tab)
	for k := Kind(1); k < kindCount; k++ {
		if kinds[k].span {
			r.hists[k] = metrics.NewHistogram(spanHistMin, spanHistMax, spanHistBuckets)
		}
	}
	return r
}

// Capacity returns the ring size.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// SetNow installs the recorder's time source (e.g. a cluster's virtual
// clock) so event timestamps stay monotone under accelerated time.
func (r *Recorder) SetNow(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.nowFn.Store(&now)
}

// SetLogger installs the structured-log twin: every recorded event is also
// emitted on logger (component-tagged, at the kind's level). Nil disables.
func (r *Recorder) SetLogger(logger *slog.Logger) {
	if r == nil {
		return
	}
	if logger == nil {
		r.logger.Store(nil)
		return
	}
	r.logger.Store(logger)
}

func (r *Recorder) now() time.Time {
	if fn := r.nowFn.Load(); fn != nil {
		return (*fn)()
	}
	return time.Now()
}

// intern maps s to a stable handle. Hits are lock-free map reads; misses take
// the intern mutex once per distinct string and republish a copied table.
func (r *Recorder) intern(s string) uint64 {
	if s == "" {
		return 0
	}
	if id, ok := (*r.internMap.Load())[s]; ok {
		return id
	}
	r.internMu.Lock()
	defer r.internMu.Unlock()
	old := *r.internMap.Load()
	if id, ok := old[s]; ok {
		return id
	}
	if len(old) >= maxInterned {
		return 1 // the shared "…" handle; the slog twin keeps the full string
	}
	next := make(map[string]uint64, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	tab := append(append([]string(nil), *r.internTab.Load()...), s)
	id := uint64(len(tab) - 1)
	next[s] = id
	r.internTab.Store(&tab)
	r.internMap.Store(&next)
	return id
}

func (r *Recorder) lookup(tab []string, id uint64) string {
	if id < uint64(len(tab)) {
		return tab[id]
	}
	return ""
}

// Record appends one event. It is safe for concurrent use, takes no lock on
// the steady-state path, and performs zero heap allocations (subjects and
// details should be stable strings — server IDs, channel names, static
// reasons — so interning hits its fast path). It returns the event's
// sequence number (0 on a nil recorder).
func (r *Recorder) Record(k Kind, planVersion uint64, subject, detail string, value, aux int64) uint64 {
	if r == nil {
		return 0
	}
	if k >= kindCount {
		k = KindUnknown
	}
	r.counts[k].Add(1)
	if h := r.hists[k]; h != nil {
		h.Observe(time.Duration(value))
	}
	ts := r.now().UnixNano()
	subID := r.intern(subject)
	detID := r.intern(detail)
	seq := r.next.Add(1)
	s := &r.slots[seq&r.mask]
	s.marker.Store(0) // take the slot; readers skip it until republished
	s.time.Store(ts)
	s.kind.Store(uint64(k))
	s.plan.Store(planVersion)
	s.subject.Store(subID)
	s.detail.Store(detID)
	s.value.Store(value)
	s.aux.Store(aux)
	s.marker.Store(seq)
	if lg := r.logger.Load(); lg != nil {
		info := kinds[k]
		if lg.Enabled(context.Background(), info.level) {
			lg.LogAttrs(context.Background(), info.level, "reconfig."+info.name,
				slog.String("component", info.component),
				slog.Uint64("plan", planVersion),
				slog.String("subject", subject),
				slog.String("detail", detail),
				slog.Int64("value", value),
				slog.Int64("aux", aux),
				slog.Uint64("seq", seq),
			)
		}
	}
	return seq
}

// Span is an in-flight timed control-plane operation.
type Span struct {
	r       *Recorder
	k       Kind
	plan    uint64
	subject string
	start   time.Time
}

// StartSpan begins a timed operation; End records it with Value = elapsed
// nanoseconds. Usable on a nil recorder (End is then a no-op).
func (r *Recorder) StartSpan(k Kind, planVersion uint64, subject string) Span {
	sp := Span{r: r, k: k, plan: planVersion, subject: subject}
	if r != nil {
		sp.start = r.now()
	}
	return sp
}

// SetSubject updates the span's subject with a value learned during the
// operation (e.g. the ID of a freshly spawned server).
func (sp *Span) SetSubject(subject string) { sp.subject = subject }

// End completes the span. detail and aux annotate the recorded event.
func (sp Span) End(detail string, aux int64) uint64 {
	if sp.r == nil {
		return 0
	}
	return sp.r.Record(sp.k, sp.plan, sp.subject, detail, sp.r.now().Sub(sp.start).Nanoseconds(), aux)
}

// EndAt completes the span with an explicit plan version learned during the
// operation (e.g. the version of the plan that was computed).
func (sp Span) EndAt(planVersion uint64, detail string, aux int64) uint64 {
	if sp.r == nil {
		return 0
	}
	return sp.r.Record(sp.k, planVersion, sp.subject, detail, sp.r.now().Sub(sp.start).Nanoseconds(), aux)
}

// Seq returns the sequence number of the most recent append (the cursor for
// Events).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Count returns how many events of kind k were recorded over the recorder's
// lifetime (including events the ring has since overwritten).
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || k >= kindCount {
		return 0
	}
	return r.counts[k].Load()
}

// Events returns the recorded events with Seq > since that are still in the
// ring, oldest first. Events overwritten by wraparound are gone; the caller
// can detect the gap by comparing the first returned Seq against since+1.
func (r *Recorder) Events(since uint64) []Event {
	if r == nil {
		return nil
	}
	latest := r.next.Load()
	if latest == 0 {
		return nil
	}
	oldest := uint64(1)
	if cap := uint64(len(r.slots)); latest > cap {
		oldest = latest - cap + 1
	}
	if since+1 > oldest {
		oldest = since + 1
	}
	if oldest > latest {
		return nil
	}
	tab := *r.internTab.Load()
	out := make([]Event, 0, latest-oldest+1)
	for seq := oldest; seq <= latest; seq++ {
		s := &r.slots[seq&r.mask]
		if s.marker.Load() != seq {
			continue // overwritten or mid-write
		}
		ev := Event{
			Seq:     seq,
			Time:    s.time.Load(),
			Kind:    Kind(s.kind.Load()),
			Plan:    s.plan.Load(),
			Subject: r.lookup(tab, s.subject.Load()),
			Detail:  r.lookup(tab, s.detail.Load()),
			Value:   s.value.Load(),
			Aux:     s.aux.Load(),
		}
		if s.marker.Load() != seq {
			continue // a writer lapped us mid-copy; drop the torn read
		}
		if ev.Kind >= kindCount {
			ev.Kind = KindUnknown
		}
		out = append(out, ev)
	}
	return out
}

// RegisterMetrics exports on reg the derived reconfiguration metrics of the
// kinds component emits ("dispatcher" on a node, "balancer" on the load
// balancer): per-kind counters (dynamoth_reconfig_*_total) and span-duration
// histograms (dynamoth_reconfig_*_seconds). A registry carries no family
// its owner never records. Reads happen on scrape only.
func (r *Recorder) RegisterMetrics(reg *obs.Registry, component string) {
	if r == nil || reg == nil {
		return
	}
	for k := Kind(1); k < kindCount; k++ {
		info := kinds[k]
		if info.metric == "" || info.component != component {
			continue
		}
		k := k
		reg.Counter(info.metric+"_total",
			"Flight-recorder "+info.name+" events observed by the "+info.component+".",
			func() uint64 { return r.counts[k].Load() })
		if info.span {
			reg.Histogram(info.metric+"_seconds",
				"Duration of "+info.name+" reconfiguration phases.",
				r.hists[k], 0.5, 0.99)
		}
	}
}
