package dispatcher

import (
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
)

// Forwarder publishes a payload on a channel of a remote pub/sub server.
// The live cluster implements it with broker client connections; over TCP it
// is a RESP client pool.
type Forwarder interface {
	ForwardPublish(server plan.ServerID, channel string, payload []byte) error
}

// ForwarderFunc adapts a function to the Forwarder interface.
type ForwarderFunc func(server plan.ServerID, channel string, payload []byte) error

// ForwardPublish implements Forwarder.
func (f ForwarderFunc) ForwardPublish(server plan.ServerID, channel string, payload []byte) error {
	return f(server, channel, payload)
}

// tickEvery is how often Core.OnTick expires drained transitions.
const tickEvery = 5 * time.Second

// Dispatcher is the live reconfiguration agent for one node: a broker
// observer that drives a Core and executes its actions against the local
// broker and the Forwarder. It also listens on its dispatch control channel
// for drain notifications and on the plan channel for new plans.
type Dispatcher struct {
	localBroker *broker.Broker
	fwd         Forwarder
	clk         clock.Clock
	self        plan.ServerID
	rec         *trace.Recorder
	log         *slog.Logger

	mu      sync.Mutex
	core    *Core
	version atomic.Uint64 // the core's plan version, for OnPublishSlot; written under mu

	session *broker.Session
	ticker  clock.Ticker
	stop    chan struct{}
	done    chan struct{}
}

var _ broker.SlotObserver = (*Dispatcher)(nil)

// Options configures a live Dispatcher.
type Options struct {
	// Self is this node's server ID.
	Self plan.ServerID
	// Node is this node's numeric ID for control envelopes.
	Node uint32
	// Initial is the bootstrap plan.
	Initial *plan.Plan
	// Broker is the local pub/sub server.
	Broker *broker.Broker
	// Forwarder reaches the other pub/sub servers.
	Forwarder Forwarder
	// Clock provides time (default real).
	Clock clock.Clock
	// Recorder receives reconfiguration events (plan applies, SWITCH sends,
	// drains). Nil records nothing; the publish hot path is untouched either
	// way — only control actions are recorded.
	Recorder *trace.Recorder
	// Logger receives structured dispatcher logs. Nil discards.
	Logger *slog.Logger
}

// New creates and starts a dispatcher: it registers as a broker observer and
// subscribes to its control channels. Call Close to stop it.
func New(opts Options) (*Dispatcher, error) {
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	d := &Dispatcher{
		localBroker: opts.Broker,
		fwd:         opts.Forwarder,
		clk:         opts.Clock,
		self:        opts.Self,
		rec:         opts.Recorder,
		log:         trace.Component(opts.Logger, "dispatcher"),
		core:        NewCore(opts.Self, opts.Node, opts.Initial, DefaultDrainTimeout),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		ticker:      opts.Clock.NewTicker(tickEvery),
	}
	session, err := opts.Broker.Connect("dispatcher:"+opts.Self, controlSink{d})
	if err != nil {
		return nil, err
	}
	d.session = session
	d.version.Store(opts.Initial.Version)
	if _, err := session.Subscribe(plan.DispatchChannel(opts.Self), plan.PlanChannel); err != nil {
		session.Close()
		return nil, err
	}
	opts.Broker.AddObserver(d)
	go d.run()
	return d, nil
}

// Plan returns the dispatcher's current plan.
func (d *Dispatcher) Plan() *plan.Plan {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.core.Plan()
}

// ApplyPlan installs a new plan directly (used by in-process clusters where
// the load balancer hands plans over function calls; the pub/sub path via
// PlanChannel does the same for distributed deployments).
func (d *Dispatcher) ApplyPlan(p *plan.Plan) {
	d.mu.Lock()
	actions := d.core.OnPlan(p, d.clk.Now())
	d.version.Store(d.core.Plan().Version)
	d.mu.Unlock()
	d.rec.Record(trace.KindPlanApply, p.Version, d.self, "", 0, int64(len(actions)))
	d.log.Info("plan applied", slog.Uint64("plan", p.Version), slog.Int("actions", len(actions)))
	d.execute(actions)
}

// Close stops the dispatcher. The broker observer registration remains (the
// broker has no removal), but a closed dispatcher ignores events.
func (d *Dispatcher) Close() {
	select {
	case <-d.stop:
		return
	default:
		close(d.stop)
	}
	d.session.Close()
	<-d.done
}

func (d *Dispatcher) run() {
	defer close(d.done)
	defer d.ticker.Stop()
	for {
		select {
		case <-d.ticker.C():
			d.mu.Lock()
			d.core.OnTick(d.clk.Now())
			d.mu.Unlock()
		case <-d.stop:
			return
		}
	}
}

func (d *Dispatcher) closed() bool {
	select {
	case <-d.stop:
		return true
	default:
		return false
	}
}

// OnPublish implements broker.Observer: OnPublishSlot with no verdict kept.
func (d *Dispatcher) OnPublish(channel string, payload []byte, receivers int) {
	var slot atomic.Value
	d.OnPublishSlot(&slot, channel, payload, receivers)
}

// verdict is what a channel record's slot keeps for the dispatcher: Core.Steady
// held at plan version.
type verdict struct {
	version  uint64
	explicit bool
}

// OnPublishSlot implements broker.SlotObserver. While the slot's verdict is
// for the current plan, a publication that cannot need an action returns
// after one header peek: no lock, no clock read, no plan lookup.
func (d *Dispatcher) OnPublishSlot(slot *atomic.Value, channel string, payload []byte, receivers int) {
	if v, _ := slot.Load().(*verdict); v != nil && v.version == d.version.Load() {
		typ, version, _, ok := message.PeekRouting(payload)
		if !ok || typ != message.TypeData || !v.explicit || version >= v.version {
			return
		}
	}
	if d.closed() {
		return
	}
	d.mu.Lock()
	actions := d.core.OnLocalPublish(channel, payload, receivers, d.clk.Now())
	if explicit, ok := d.core.Steady(channel); ok {
		slot.Store(&verdict{version: d.core.Plan().Version, explicit: explicit})
	}
	d.mu.Unlock()
	d.execute(actions)
}

// OnSubscribe implements broker.Observer.
func (d *Dispatcher) OnSubscribe(channel, session string, subscribers int) {
	if d.closed() || isOwnSession(session) {
		return
	}
	d.mu.Lock()
	actions := d.core.OnLocalSubscribe(channel, subscribers, d.clk.Now())
	d.mu.Unlock()
	d.execute(actions)
}

// OnUnsubscribe implements broker.Observer.
func (d *Dispatcher) OnUnsubscribe(channel, session string, subscribers int) {
	if d.closed() || isOwnSession(session) {
		return
	}
	d.mu.Lock()
	actions := d.core.OnLocalUnsubscribe(channel, subscribers)
	d.mu.Unlock()
	d.execute(actions)
}

// isOwnSession filters the dispatcher's own control subscriptions out of the
// event stream.
func isOwnSession(session string) bool {
	return len(session) >= 11 && session[:11] == "dispatcher:"
}

func (d *Dispatcher) execute(actions []Action) {
	for _, a := range actions {
		// Record the control-plane actions only: SWITCH notifications and
		// drain handoffs. Forwarded data publications stay untouched — they
		// are the hot path.
		switch a.Env.Type {
		case message.TypeSwitch:
			d.rec.Record(trace.KindSwitchSend, a.Env.PlanVersion, a.Channel, "", 0, int64(len(a.Env.Servers)))
		case message.TypeDrained:
			// Value carries the old holder's replay ring head at handoff:
			// the timeline can tell how much of the drained channel's tail
			// stayed replayable for cursors that resume against it.
			var head int64
			if _, h, ok := d.localBroker.ReplayHead(a.Channel); ok {
				head = int64(h)
			}
			d.rec.Record(trace.KindDrained, a.Env.PlanVersion, a.Channel, "", head, 0)
		}
		payload := a.Env.Marshal()
		switch a.Kind {
		case ActionPublishLocal:
			d.localBroker.Publish(a.Channel, payload)
		case ActionForward:
			if d.fwd != nil {
				// Forwarding failures are tolerated: the drain timeout and
				// client plan timers bound the inconsistency window, and
				// the next publication retries implicitly.
				_ = d.fwd.ForwardPublish(a.Server, a.Channel, payload)
			}
		}
	}
}

// controlSink receives the dispatcher's own control subscriptions
// (drain notifications and plan broadcasts).
type controlSink struct{ d *Dispatcher }

// Deliver implements broker.Sink.
func (s controlSink) Deliver(channel string, payload []byte) {
	d := s.d
	if d.closed() {
		return
	}
	env, err := message.Unmarshal(payload)
	if err != nil {
		return
	}
	switch {
	case channel == plan.PlanChannel && env.Type == message.TypePlan:
		p, err := plan.Unmarshal(env.Payload)
		if err != nil {
			return
		}
		d.ApplyPlan(p)
	case env.Type == message.TypeDrained && len(env.Servers) == 1:
		d.mu.Lock()
		d.core.OnDrained(env.Channel, env.Servers[0])
		d.mu.Unlock()
	}
}

// Closed implements broker.Sink.
func (controlSink) Closed(error) {}
