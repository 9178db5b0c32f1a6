package balancer

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"sync"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// PlanGenerator is the planning strategy: the Dynamoth Planner or the
// consistent-hashing baseline CHPlanner.
type PlanGenerator interface {
	GeneratePlan(current *plan.Plan, loads []ServerLoad) Decision
}

var (
	_ PlanGenerator = (*Planner)(nil)
	_ PlanGenerator = (*CHPlanner)(nil)
)

// CloudProvider is what the orchestrator needs from the cloud: booting a new
// pub/sub node (blocking until ready) and releasing one.
type CloudProvider interface {
	Spawn(ctx context.Context) (plan.ServerID, error)
	Release(id plan.ServerID) error
}

// Dialer reaches the plan servers: Dial opens the orchestrator's control link
// to one (its LLA reports in, plans out) and Probe checks its liveness, the
// probe enforcing timeout itself. transport.TCPDialer and
// transport.MemDialer satisfy it.
type Dialer interface {
	Dial(server plan.ServerID, h transport.Handler) (transport.Conn, error)
	Probe(server plan.ServerID, timeout time.Duration) error
}

// OrchestratorOptions wires a live load-balancer loop.
type OrchestratorOptions struct {
	// Planner decides plans (Dynamoth or CH baseline). It runs under the
	// orchestrator's lock and must not call back into the Orchestrator.
	Planner PlanGenerator
	// Config supplies T_wait and window parameters.
	Config Config
	// Initial is the bootstrap plan ("plan 0").
	Initial *plan.Plan
	// Dialer reaches the plan servers (required): the orchestrator holds
	// one link per server, reads its LLA reports off plan.ReportChannel,
	// pushes every plan on plan.PlanChannel and probes through it.
	Dialer Dialer
	// Cloud provisions and releases servers. May be nil (fixed pool).
	Cloud CloudProvider
	// ReleaseGrace delays the despawn of a released server so in-flight
	// forwarding can finish (default = 2×DrainTimeout analog, 20 s).
	ReleaseGrace time.Duration
	// Clock provides time (default real).
	Clock clock.Clock

	// Detect enables broker failure detection and automatic plan repair
	// with the given thresholds. Nil disables the failure tolerance layer
	// (the paper's fault-free model).
	Detect *lla.DetectorConfig
	// ProbeInterval is how often every plan server is probed, and each
	// probe's deadline (default 2 s).
	ProbeInterval time.Duration
	// OnServerDead is called (from the detection goroutine) after a dead
	// server was evacuated from the plan and its link closed — deployments
	// use it to fence the node (tear it down, stop routing to it). May be
	// nil.
	OnServerDead func(plan.ServerID)
	// ReplaceFailed, when true and Cloud is set, spawns a replacement
	// server after each failure evacuation.
	ReplaceFailed bool

	// Recorder receives control-plane flight-recorder events (triggers,
	// plan computation, pushes, repairs, spawns). Nil records nothing.
	Recorder *trace.Recorder
	// Logger receives structured balancer logs (component-tagged). Nil
	// discards.
	Logger *slog.Logger
}

// Orchestrator runs the live load-balancer loop: the IO shell around a Core.
// It holds one link per plan server, the LB side of the control protocol:
// report envelopes come in and are decoded here, plan envelopes are built
// here and go out to every link. Its goroutines feed the core reports, ticks
// and probe outcomes under mu, and it carries out what the core decides
// (plan pushes, cloud spawns and releases, fencing) outside mu, because
// those callbacks may call back into Plan.
type Orchestrator struct {
	opts OrchestratorOptions
	rec  *trace.Recorder
	log  *slog.Logger
	ids  *message.Generator // plan envelope IDs

	mu   sync.Mutex
	core *Core

	// reports carries decoded reports to Run. A link drops a report rather
	// than wait while Run is busy; 256 is 32 report rounds of a full
	// default pool (MaxServers 8).
	reports chan *lla.Report
	linksMu sync.Mutex
	links   map[plan.ServerID]transport.Conn

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// NewOrchestrator creates a live balancer loop and links it to every server
// of opts.Initial; it fails if one cannot be reached. Call Run (usually in a
// goroutine) and Stop.
func NewOrchestrator(opts OrchestratorOptions) (*Orchestrator, error) {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.ReleaseGrace <= 0 {
		opts.ReleaseGrace = 20 * time.Second
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	o := &Orchestrator{
		opts:    opts,
		rec:     opts.Recorder,
		log:     trace.Component(opts.Logger, "balancer"),
		ids:     message.NewGenerator(0xB1B),
		core:    NewCore(opts.Planner, opts.Config, opts.Initial, opts.Detect),
		reports: make(chan *lla.Report, 256),
		links:   make(map[plan.ServerID]transport.Conn, len(opts.Initial.Servers)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, id := range opts.Initial.Servers {
		if err := o.connect(id); err != nil {
			o.closeLinks()
			return nil, err
		}
	}
	return o, nil
}

// Plan returns the current plan.
func (o *Orchestrator) Plan() *plan.Plan {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.core.Plan()
}

// Rebalances returns how many plan changes were published (the paper's
// diamond marks).
func (o *Orchestrator) Rebalances() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.core.rebalances
}

// Failures returns how many servers the detector declared dead and the
// repair path evacuated.
func (o *Orchestrator) Failures() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.core.failures
}

// Run processes reports and ticks until Stop. It blocks; start it in a
// goroutine.
func (o *Orchestrator) Run() {
	defer close(o.done)
	if o.opts.Detect != nil {
		o.wg.Add(1)
		go o.detectLoop()
	}
	ticker := o.opts.Clock.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case r := <-o.reports:
			o.mu.Lock()
			o.core.Report(r, o.opts.Clock.Now())
			o.mu.Unlock()
		case <-ticker.C():
			o.rebalance()
		case <-o.stop:
			return
		}
	}
}

// Stop terminates Run, waits for in-flight spawn/release goroutines and
// closes every link.
func (o *Orchestrator) Stop() {
	select {
	case <-o.stop:
	default:
		close(o.stop)
	}
	<-o.done
	o.wg.Wait()
	o.closeLinks()
}

// connect dials id and subscribes the link to its LLA reports.
func (o *Orchestrator) connect(id plan.ServerID) error {
	conn, err := o.opts.Dialer.Dial(id, link{o: o, id: id})
	if err != nil {
		return fmt.Errorf("balancer: connecting to node %s: %w", id, err)
	}
	if err := conn.Subscribe(plan.ReportChannel); err != nil {
		conn.Close()
		return fmt.Errorf("balancer: subscribing reports on %s: %w", id, err)
	}
	o.linksMu.Lock()
	o.links[id] = conn
	o.linksMu.Unlock()
	return nil
}

// drop closes and forgets id's link, if it still has one.
func (o *Orchestrator) drop(id plan.ServerID) {
	o.linksMu.Lock()
	conn := o.links[id]
	delete(o.links, id)
	o.linksMu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (o *Orchestrator) closeLinks() {
	o.linksMu.Lock()
	links := o.links
	o.links = make(map[plan.ServerID]transport.Conn)
	o.linksMu.Unlock()
	for _, conn := range links {
		conn.Close()
	}
}

// push sends p to every linked server as one TypePlan envelope on
// plan.PlanChannel, recording one plan_push span per server.
func (o *Orchestrator) push(p *plan.Plan) {
	data, err := p.Marshal()
	if err != nil {
		return
	}
	env := &message.Envelope{Type: message.TypePlan, ID: o.ids.Next(), Channel: plan.PlanChannel, Payload: data}
	payload := env.Marshal()
	o.linksMu.Lock()
	links := maps.Clone(o.links)
	o.linksMu.Unlock()
	for id, conn := range links {
		span := o.rec.StartSpan(trace.KindPlanPush, p.Version, id)
		if err := conn.Publish(plan.PlanChannel, payload); err != nil {
			span.End("error", 0)
			o.log.Warn("plan push failed",
				slog.Uint64("plan", p.Version), slog.String("node", id), slog.Any("err", err))
			continue
		}
		span.End("", 0)
	}
	o.log.Info("plan published", slog.Uint64("plan", p.Version), slog.Int("channels", len(p.Channels)))
}

// link is the transport.Handler of one server's link: it decodes the
// server's LLA reports into the report queue, dropping malformed ones and,
// when the LB lags, new ones (a newer report follows), and forgets the link
// when its connection dies.
type link struct {
	o  *Orchestrator
	id plan.ServerID
}

func (l link) OnMessage(_ string, payload []byte) {
	env, err := message.Unmarshal(payload)
	if err != nil || env.Type != message.TypeLoadReport {
		return
	}
	r, err := lla.UnmarshalReport(env.Payload)
	if err != nil {
		return
	}
	select {
	case l.o.reports <- r:
	default:
	}
}

func (l link) OnDisconnect(err error) {
	l.o.log.Warn("node connection lost", slog.String("node", l.id), slog.Any("err", err))
	l.o.drop(l.id)
}

func (o *Orchestrator) rebalance() {
	compute := o.rec.StartSpan(trace.KindPlanCompute, 0, "")
	o.mu.Lock()
	r, ok := o.core.Tick(o.opts.Clock.Now())
	o.mu.Unlock()
	if !ok {
		return
	}
	compute.EndAt(r.Version, r.Reason, int64(len(r.Loads)))

	// The trigger carries the planner's reason and the worst load ratio it
	// saw; each LLA reading behind the decision is recorded alongside (ratio
	// in millionths, measured bytes/sec in Aux).
	var lrMax float64
	for _, l := range r.Loads {
		ratio := l.Ratio()
		lrMax = max(lrMax, ratio)
		o.rec.Record(trace.KindLoad, r.Version, l.Server, "", int64(ratio*1e6), int64(l.MeasuredBps))
	}
	o.rec.Record(trace.KindTrigger, r.Version, "", r.Reason, int64(lrMax*1e6), int64(len(r.Loads)))
	o.log.Info("rebalance triggered",
		slog.String("reason", r.Reason),
		slog.Uint64("plan", r.Version),
		slog.Float64("lrMax", lrMax),
		slog.Int("servers", len(r.Loads)))
	if r.SinceLast > 0 {
		o.rec.Record(trace.KindTWait, r.Version, "", "", r.SinceLast.Nanoseconds(), 0)
	}

	if r.Plan != nil {
		o.push(r.Plan)
	}
	if r.StartSpawn && o.opts.Cloud != nil {
		o.wg.Add(1)
		go o.spawnOne()
	}
	if r.Release != "" {
		o.rec.Record(trace.KindRelease, r.Version, r.Release, "graceful", 0, 0)
		o.log.Info("releasing server", slog.String("server", r.Release))
		if o.opts.Cloud != nil {
			o.wg.Add(1)
			go o.releaseAfterGrace(r.Release)
		}
	}
}

func (o *Orchestrator) spawnOne() {
	defer o.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-o.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	boot := o.rec.StartSpan(trace.KindSpawn, 0, "")
	id, err := o.opts.Cloud.Spawn(ctx)
	if err != nil {
		o.mu.Lock()
		o.core.SpawnFailed()
		o.mu.Unlock()
		o.log.Warn("spawn failed", slog.Any("err", err))
		return
	}
	o.mu.Lock()
	next := o.core.Joined(id, o.opts.Clock.Now())
	o.mu.Unlock()

	boot.SetSubject(id)
	boot.EndAt(next.Version, "ready", 0)
	o.log.Info("server spawned", slog.String("server", id), slog.Uint64("plan", next.Version))
	if err := o.connect(id); err != nil {
		o.log.Warn("spawned server unreachable", slog.String("server", id), slog.Any("err", err))
	}
	o.push(next)
}

// detectLoop is the failure-detection side of the balancer: it probes every
// plan server on ProbeInterval, feeds the outcomes to the core (reports
// arrive through Run), and carries out the repairs the core decides.
func (o *Orchestrator) detectLoop() {
	defer o.wg.Done()
	ticker := o.opts.Clock.NewTicker(o.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C():
		case <-o.stop:
			return
		}
		o.mu.Lock()
		servers := o.core.Track(o.opts.Clock.Now())
		o.mu.Unlock()
		// Probe concurrently: each probe carries its own deadline, and a
		// dead server must not delay the liveness verdict of the rest.
		var pw sync.WaitGroup
		for _, s := range servers {
			pw.Add(1)
			go func(s plan.ServerID) {
				defer pw.Done()
				ok := o.opts.Dialer.Probe(s, o.opts.ProbeInterval) == nil
				o.mu.Lock()
				o.core.ObserveProbe(s, ok)
				o.mu.Unlock()
			}(s)
		}
		pw.Wait()
		o.mu.Lock()
		repairs := o.core.Detect(o.opts.Clock.Now())
		replace := len(repairs) > 0 && o.opts.ReplaceFailed && o.opts.Cloud != nil && o.core.ReserveSpawn()
		o.mu.Unlock()
		for _, rp := range repairs {
			o.repaired(rp)
		}
		if replace {
			o.wg.Add(1)
			go o.spawnOne()
		}
	}
}

// repaired carries out one repair: it closes the dead node's link, fences
// the node via OnServerDead and pushes the repaired plan (ring successors
// take over its channels).
func (o *Orchestrator) repaired(rp Repair) {
	span := o.rec.StartSpan(trace.KindRepair, 0, rp.Server)
	o.rec.Record(trace.KindDetect, rp.Plan.Version, rp.Server, "verdict:dead", int64(rp.Misses), rp.Staleness.Nanoseconds())
	o.log.Warn("server declared dead",
		slog.String("server", rp.Server),
		slog.Int("probeMisses", rp.Misses),
		slog.Duration("staleness", rp.Staleness),
		slog.Uint64("repairPlan", rp.Plan.Version),
		slog.Int("evacuatedChannels", rp.Evacuated))
	o.drop(rp.Server)
	if o.opts.OnServerDead != nil {
		o.opts.OnServerDead(rp.Server)
	}
	o.push(rp.Plan)
	span.EndAt(rp.Plan.Version, "evacuated", int64(rp.Evacuated))
}

func (o *Orchestrator) releaseAfterGrace(id plan.ServerID) {
	defer o.wg.Done()
	timer := o.opts.Clock.NewTimer(o.opts.ReleaseGrace)
	select {
	case <-timer.C():
	case <-o.stop:
		timer.Stop()
		// Shutting down: release immediately.
	}
	o.drop(id)
	_ = o.opts.Cloud.Release(id) // unknown instance on shutdown is fine
}
