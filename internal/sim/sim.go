package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/dispatcher"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/localplan"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/netsim"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// Mode selects the load-balancing strategy under simulation.
type Mode string

// Balancer modes.
const (
	ModeDynamoth          Mode = "dynamoth"
	ModeConsistentHashing Mode = "consistent-hashing"
	ModeNone              Mode = "none"
)

// Config parameterizes a simulation.
type Config struct {
	// Seed drives all randomness; a fixed seed reproduces a run exactly.
	Seed int64
	// Start is the virtual start time (default 2026-01-01).
	Start time.Time
	// InitialServers is the bootstrap pool (default ["pub1"]).
	InitialServers []string
	// MaxOutgoingBps is the per-server egress capacity T_i
	// (default lla.DefaultMaxOutgoingBps).
	MaxOutgoingBps float64
	// ConnDrainPerSec is the per-connection drain rate in messages/second
	// (default 2000 — Redis output-buffer drain analog).
	ConnDrainPerSec float64
	// ConnQueueLimit is the per-connection output buffer in messages
	// (default 2000).
	ConnQueueLimit int
	// Path is the latency model (default the King-like PathModel).
	Path *netsim.PathModel
	// Mode selects the balancer (default ModeDynamoth).
	Mode Mode
	// Balancer carries the planner thresholds and the plan spacing
	// (default DefaultConfig with MaxServers 8).
	Balancer balancer.Config
	// BootDelay is the cloud boot time for spawned servers (default 10 s).
	BootDelay time.Duration
	// Unit is the metric time unit (default 1 s).
	Unit time.Duration
	// ReportEvery is the LLA report interval (default 3 s).
	ReportEvery time.Duration
	// EntryTimeout is the client plan-entry / dispatcher drain timeout
	// (default 30 s).
	EntryTimeout time.Duration
	// ReleaseGrace delays killing a released server (default 20 s).
	ReleaseGrace time.Duration
}

// maxBacklog bounds a server's egress queue: deliveries that would wait
// longer are dropped, as a real NIC/socket stack sheds load instead of
// buffering minutes of traffic (Redis kills slow clients; the paper observes
// servers failing past LR ≈ 1.15).
const maxBacklog = 2 * time.Second

func (c Config) fillDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if len(c.InitialServers) == 0 {
		c.InitialServers = []string{"pub1"}
	}
	if c.MaxOutgoingBps <= 0 {
		c.MaxOutgoingBps = lla.DefaultMaxOutgoingBps
	}
	if c.ConnDrainPerSec <= 0 {
		c.ConnDrainPerSec = 2000
	}
	if c.ConnQueueLimit <= 0 {
		c.ConnQueueLimit = 2000
	}
	if c.Path == nil {
		c.Path = netsim.NewPathModel()
	}
	if c.Mode == "" {
		c.Mode = ModeDynamoth
	}
	if c.Balancer.LRHigh == 0 {
		c.Balancer = balancer.DefaultConfig()
	}
	if c.BootDelay <= 0 {
		c.BootDelay = 10 * time.Second
	}
	if c.Unit <= 0 {
		c.Unit = time.Second
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 3 * c.Unit
	}
	if c.EntryTimeout <= 0 {
		c.EntryTimeout = localplan.DefaultTimeout
	}
	if c.ReleaseGrace <= 0 {
		c.ReleaseGrace = 20 * time.Second
	}
	return c
}

// Rebalance records one plan change for experiment marks.
type Rebalance struct {
	Time   time.Time
	Reason string
}

// UnitSnapshot is the per-time-unit statistic bundle delivered to OnUnit
// hooks — the raw series behind Figures 5, 6 and 7.
type UnitSnapshot struct {
	Time          time.Time
	Elapsed       time.Duration
	ActiveServers int
	Clients       int
	// OutMsgs is the number of per-subscriber deliveries this unit.
	OutMsgs int64
	// OutBytes is the outgoing byte volume this unit.
	OutBytes int64
	// AvgLoadRatio and MaxLoadRatio are per-server LR_i aggregates
	// computed from this unit's actual egress traffic.
	AvgLoadRatio float64
	MaxLoadRatio float64
	// DroppedDeliveries counts messages lost to dead connections.
	DroppedDeliveries int64
	// AvgLocalPlanSize is the mean number of learned entries in client
	// local plans — the paper's §II-C claim is that lazy propagation keeps
	// this small (clients only know channels they actually use).
	AvgLocalPlanSize float64
	// InstanceSeconds is cumulative server-seconds consumed so far (the
	// cloud-cost measure behind the paper's elasticity argument).
	InstanceSeconds float64
}

// Sim is a running simulation.
type Sim struct {
	cfg Config
	eng *Engine
	rng *rand.Rand

	servers   map[plan.ServerID]*Server
	serverIDs []plan.ServerID // sorted, alive only
	clients   map[uint32]*Client
	nextSpawn int

	lb              *balancer.Core // the live load balancer's decision loop
	rebalances      []Rebalance
	instanceSeconds float64 // accumulated by dead servers; live ones add at read

	onUnit  []func(UnitSnapshot)
	dropped int64
}

// New creates a simulation with the bootstrap servers running.
func New(cfg Config) *Sim {
	cfg = cfg.fillDefaults()
	s := &Sim{
		cfg:     cfg,
		eng:     NewEngine(cfg.Start),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		servers: make(map[plan.ServerID]*Server),
		clients: make(map[uint32]*Client),
	}
	var planner balancer.PlanGenerator
	switch cfg.Mode {
	case ModeConsistentHashing:
		planner = balancer.NewCHPlanner(cfg.Balancer)
	case ModeNone: // a fixed pool: nothing ticks the balancer
	default:
		pinned := func(id string) bool { return id == cfg.InitialServers[0] }
		planner = balancer.NewPlanner(cfg.Balancer, plan.IsControlChannel, pinned, cfg.MaxOutgoingBps)
	}
	initial := plan.New(cfg.InitialServers...)
	initial.Version = 1
	s.lb = balancer.NewCore(planner, cfg.Balancer, initial, nil)
	for i, id := range cfg.InitialServers {
		s.addServer(id, uint32(0xD000+i))
	}

	// Periodic machinery.
	s.eng.Every(cfg.Unit, s.unitTick)
	if planner != nil {
		s.eng.Every(cfg.Unit, s.lbTick)
	}
	s.eng.Every(cfg.EntryTimeout/4, s.sweepClients)
	return s
}

// Engine exposes the event loop (experiments schedule workload events on it).
func (s *Sim) Engine() *Engine { return s.eng }

// Now returns the virtual time.
func (s *Sim) Now() time.Time { return s.eng.Now() }

// Elapsed returns virtual time since the start.
func (s *Sim) Elapsed() time.Duration { return s.eng.Now().Sub(s.cfg.Start) }

// RunFor advances the simulation by d.
func (s *Sim) RunFor(d time.Duration) { s.eng.RunUntil(s.eng.Now().Add(d)) }

// OnUnit registers a per-time-unit statistics hook.
func (s *Sim) OnUnit(fn func(UnitSnapshot)) { s.onUnit = append(s.onUnit, fn) }

// ActiveServers returns the number of live servers.
func (s *Sim) ActiveServers() int { return len(s.serverIDs) }

// InstanceSeconds returns cumulative server-seconds consumed (the cloud
// cost measure: a balancer that releases idle servers pays less).
func (s *Sim) InstanceSeconds() float64 {
	total := s.instanceSeconds
	now := s.eng.Now()
	for _, id := range s.serverIDs {
		total += now.Sub(s.servers[id].started).Seconds()
	}
	return total
}

// Rebalances returns the recorded plan changes.
func (s *Sim) Rebalances() []Rebalance {
	return append([]Rebalance(nil), s.rebalances...)
}

// PlanVersion returns the LB's current plan version.
func (s *Sim) PlanVersion() uint64 { return s.lb.Plan().Version }

// CurrentPlan returns a copy of the LB's current plan (for assertions).
func (s *Sim) CurrentPlan() *plan.Plan { return s.lb.Plan().Clone() }

// SetPlan force-installs a plan on the LB and every dispatcher — used by the
// micro-benchmarks of Experiment 1, where the paper configures replication
// manually rather than through Algorithm 1.
func (s *Sim) SetPlan(p *plan.Plan) {
	s.lb.Install(p, s.eng.Now())
	for _, id := range s.serverIDs {
		s.servers[id].core.OnPlan(p.Clone(), s.eng.Now())
	}
}

// Rand returns the simulation's RNG (for workload randomness, keeping runs
// reproducible).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// ---------------------------------------------------------------------------
// Servers

// Server is one simulated pub/sub node: broker semantics + egress link +
// per-connection buffers + LLA accumulator + dispatcher core.
type Server struct {
	id      plan.ServerID
	sim     *Sim
	started time.Time

	egress *netsim.Pipe
	conns  map[uint32]*netsim.ConnQueue
	subs   map[string]map[uint32]struct{}

	core  *dispatcher.Core
	accum *lla.Accumulator // the live LLA core, driven by engine events
	// deliverFIFO keeps per-connection downlink ordering (TCP FIFO).
	deliverFIFO map[uint32]time.Time

	// Figure instrumentation (UnitSnapshot), not the LLA: egress this unit.
	unitBytes float64
	unitMsgs  int64

	alive bool
}

func (s *Sim) addServer(id plan.ServerID, node uint32) *Server {
	srv := &Server{
		id:      id,
		sim:     s,
		started: s.eng.Now(),
		egress:  netsim.NewPipe(s.cfg.MaxOutgoingBps),
		conns:   make(map[uint32]*netsim.ConnQueue),
		subs:    make(map[string]map[uint32]struct{}),
		core:    dispatcher.NewCore(id, node, s.lb.Plan().Clone(), s.cfg.EntryTimeout),
		accum: lla.NewAccumulator(lla.Config{
			Server:         id,
			MaxOutgoingBps: s.cfg.MaxOutgoingBps,
			ReportEvery:    s.cfg.ReportEvery,
		}, s.eng.Now()),
		alive: true,
	}
	srv.deliverFIFO = make(map[uint32]time.Time)
	s.servers[id] = srv
	s.serverIDs = append(s.serverIDs, id)
	sort.Strings(s.serverIDs)

	// Per-server LLA loop: the engine's timers stand in for the Analyzer's
	// tickers.
	var unitLoop func()
	unitLoop = func() {
		if !srv.alive {
			return
		}
		srv.accum.Seal()
		s.eng.After(s.cfg.Unit, unitLoop)
	}
	s.eng.After(s.cfg.Unit, unitLoop)

	var reportLoop func()
	reportLoop = func() {
		if !srv.alive {
			return
		}
		s.lb.Report(srv.accum.Report(s.eng.Now()), s.eng.Now())
		s.eng.After(s.cfg.ReportEvery, reportLoop)
	}
	s.eng.After(s.cfg.ReportEvery, reportLoop)

	// Dispatcher transition expiry.
	var tickLoop func()
	tickLoop = func() {
		if !srv.alive {
			return
		}
		srv.core.OnTick(s.eng.Now())
		s.eng.After(5*time.Second, tickLoop)
	}
	s.eng.After(5*time.Second, tickLoop)
	return srv
}

func (s *Sim) killServer(id plan.ServerID) {
	srv := s.servers[id]
	if srv == nil || !srv.alive {
		return
	}
	srv.alive = false
	s.instanceSeconds += s.eng.Now().Sub(srv.started).Seconds()
	delete(s.servers, id)
	kept := s.serverIDs[:0]
	for _, have := range s.serverIDs {
		if have != id {
			kept = append(kept, have)
		}
	}
	s.serverIDs = kept
	// Clients with subscriptions here must repair. Sorted order keeps the
	// RNG draw sequence (and thus the whole run) deterministic.
	nodes := make([]uint32, 0, len(srv.conns))
	for node := range srv.conns {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, node := range nodes {
		if c := s.clients[node]; c != nil {
			client := c
			s.eng.After(s.delay(netsim.Infra, netsim.Client), func() {
				client.disconnected(id)
			})
		}
	}
}

// receive processes one publication arriving at the server (from a client,
// from another dispatcher, or locally from its own dispatcher).
func (srv *Server) receive(channel string, env *message.Envelope) {
	if !srv.alive {
		return
	}
	s := srv.sim
	now := s.eng.Now()
	// The publication as a live broker sees it: its size feeds the link
	// model, its bytes the dispatcher core.
	frame := env.Marshal()
	wire := float64(len(frame))

	subscribers := srv.subs[channel]
	receivers := len(subscribers)

	// Control-plane frames addressed to this dispatcher.
	if env.Type == message.TypeDrained && channel == plan.DispatchChannel(srv.id) && len(env.Servers) == 1 {
		srv.core.OnDrained(env.Channel, env.Servers[0])
		return
	}

	// Metrics: the LLA observer sees every publication, control frames
	// included, as the live broker's observer does (§III-A).
	srv.accum.OnPublish(channel, env.ID.Node, int(wire), receivers)

	// Fan out through the egress link and per-connection buffers.
	if receivers > 0 {
		nodes := make([]uint32, 0, receivers)
		for n := range subscribers {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, node := range nodes {
			conn := srv.conns[node]
			if conn == nil {
				continue // connection died; subscription cleanup is pending
			}
			srv.unitBytes += wire
			// Saturated egress sheds bulk data instead of queueing
			// unboundedly (socket buffers are finite; Redis disconnects
			// slow consumers rather than buffer forever). Offered bytes
			// still count toward the load ratio above, so the balancer
			// sees the overload. Control frames (switch, redirects, drain
			// notifications) are small, rate-limited, and ride reliable
			// TCP — they are never shed, which is what lets an overloaded
			// system converge back to health, as in the paper.
			isBulk := env.Type == message.TypeData || env.Type == message.TypeForwarded
			if isBulk && srv.egress.QueueDelay(now) > maxBacklog {
				s.dropped++
				continue
			}
			dep := srv.egress.Send(now, wire)
			srv.unitMsgs++
			connDep, ok := conn.Send(dep)
			if !ok {
				s.dropped++
				if conn.Dead() {
					srv.dropConn(node)
				}
				continue
			}
			srv.scheduleDelivery(node, channel, env, connDep)
		}
	}

	// Dispatcher reaction.
	actions := srv.core.OnLocalPublish(channel, frame, receivers, now)
	srv.execute(actions)
}

// scheduleDelivery decides whether a delivery needs a client-side event.
// Control frames and self-deliveries (the publisher receiving its own
// publication — the response-time probe) always do; bulk data deliveries to
// third parties are accounted in the link model above but need no client
// event, keeping the event count proportional to publications rather than
// deliveries.
func (srv *Server) scheduleDelivery(node uint32, channel string, env *message.Envelope, depart time.Time) {
	s := srv.sim
	c := s.clients[node]
	if c == nil {
		return
	}
	isData := env.Type == message.TypeData || env.Type == message.TypeForwarded
	if isData && env.ID.Node != node && !c.DeliverAll {
		return
	}
	arrive := depart.Add(s.delay(netsim.Infra, netsim.Client))
	if last := srv.deliverFIFO[node]; arrive.Before(last) {
		arrive = last
	}
	srv.deliverFIFO[node] = arrive
	s.eng.At(arrive, func() { c.receive(channel, env) })
}

// dropConn models a Redis slow-consumer disconnect: the connection and
// every subscription the node held on this server vanish, and the client is
// notified so it can reconnect and resubscribe.
func (srv *Server) dropConn(node uint32) {
	delete(srv.conns, node)
	delete(srv.deliverFIFO, node)
	channels := make([]string, 0, 4)
	for ch, set := range srv.subs {
		if _, ok := set[node]; ok {
			channels = append(channels, ch)
		}
	}
	sort.Strings(channels)
	for _, ch := range channels {
		set := srv.subs[ch]
		delete(set, node)
		count := len(set)
		if count == 0 {
			delete(srv.subs, ch)
		}
		srv.accum.OnUnsubscribe(ch, count)
		srv.execute(srv.core.OnLocalUnsubscribe(ch, count))
	}
	// The client notices the disconnect after a round trip and repairs.
	if c := srv.sim.clients[node]; c != nil {
		srv.sim.eng.After(srv.sim.delay(netsim.Infra, netsim.Client), func() {
			c.disconnected(srv.id)
		})
	}
}

// subscribe registers a client on a channel.
func (srv *Server) subscribe(node uint32, channel string) {
	if !srv.alive {
		return
	}
	set := srv.subs[channel]
	if set == nil {
		set = make(map[uint32]struct{})
		srv.subs[channel] = set
	}
	if srv.conns[node] == nil {
		srv.conns[node] = netsim.NewConnQueue(srv.sim.cfg.ConnDrainPerSec, srv.sim.cfg.ConnQueueLimit)
	}
	if _, dup := set[node]; dup {
		return
	}
	set[node] = struct{}{}
	srv.accum.OnSubscribe(channel, len(set))
	srv.execute(srv.core.OnLocalSubscribe(channel, len(set), srv.sim.eng.Now()))
}

// unsubscribe removes a client from a channel.
func (srv *Server) unsubscribe(node uint32, channel string) {
	if !srv.alive {
		return
	}
	set := srv.subs[channel]
	if set == nil {
		return
	}
	if _, ok := set[node]; !ok {
		return
	}
	delete(set, node)
	count := len(set)
	if count == 0 {
		delete(srv.subs, channel)
	}
	srv.accum.OnUnsubscribe(channel, count)
	srv.execute(srv.core.OnLocalUnsubscribe(channel, count))
}

// execute performs dispatcher actions in the simulated network.
func (srv *Server) execute(actions []dispatcher.Action) {
	s := srv.sim
	for _, a := range actions {
		switch a.Kind {
		case dispatcher.ActionPublishLocal:
			env := a.Env
			ch := a.Channel
			// Local re-publication is immediate (same host).
			s.eng.After(0, func() { srv.receive(ch, env) })
		case dispatcher.ActionForward:
			target := s.servers[a.Server]
			if target == nil {
				continue
			}
			env := a.Env
			ch := a.Channel
			s.eng.After(s.cfg.Path.LAN, func() { target.receive(ch, env) })
		}
	}
}

// ---------------------------------------------------------------------------
// Clients

// Client is one simulated Dynamoth client: the live library's local plan,
// routing table and deduper, driven by simulated arrivals.
type Client struct {
	id  uint32
	sim *Sim

	store  *localplan.Store
	routes *localplan.Router
	dedup  *message.Deduper
	gen    *message.Generator

	// OnData is called for every data delivery scheduled to this client
	// (control traffic and self-deliveries; see scheduleDelivery).
	OnData func(channel string, env *message.Envelope, sentAt time.Time)
	// DeliverAll schedules a client event for every data delivery, not
	// just self-deliveries — used by measurement probes (Experiment 1
	// times third-party subscribers). Costs one event per delivery.
	DeliverAll bool

	// sendFIFO enforces per-(client,server) in-order arrival of what this
	// client sends: TCP never reorders within a connection, so a
	// subscribe must not overtake an earlier unsubscribe just because its
	// sampled latency was lower.
	sendFIFO map[plan.ServerID]time.Time

	alive bool
}

// AddClient creates a client and subscribes its redirect inbox.
func (s *Sim) AddClient(id uint32) *Client {
	c := &Client{
		id:       id,
		sim:      s,
		store:    localplan.New(s.cfg.InitialServers, s.cfg.EntryTimeout),
		dedup:    message.NewDeduper(512),
		gen:      message.NewGenerator(id),
		sendFIFO: make(map[plan.ServerID]time.Time),
		alive:    true,
	}
	inbox := plan.InboxChannel(id)
	c.routes = localplan.NewRouter(c.store, inbox)
	s.clients[id] = c
	c.apply(inbox, c.routes.Subscribe(inbox, s.eng.Now(), c.reach), nil)
	return c
}

// RemoveClient disconnects a client (player leaves).
func (s *Sim) RemoveClient(id uint32) {
	c := s.clients[id]
	if c == nil {
		return
	}
	c.alive = false
	for _, ch := range c.routes.Channels() { // sorted: deterministic RNG draw order
		c.apply(ch, nil, c.routes.Unsubscribe(ch))
	}
	delete(s.clients, id)
}

// Client returns a client by ID (nil if absent).
func (s *Sim) Client(id uint32) *Client { return s.clients[id] }

// ClientCount returns the number of live clients.
func (s *Sim) ClientCount() int { return len(s.clients) }

// ID returns the client's node ID.
func (c *Client) ID() uint32 { return c.id }

// Subscribe places a subscription per the client's current plan knowledge.
func (c *Client) Subscribe(channel string) {
	c.apply(channel, c.routes.Subscribe(channel, c.sim.eng.Now(), c.reach), nil)
}

// Unsubscribe removes the client's subscriptions for a channel.
func (c *Client) Unsubscribe(channel string) {
	c.apply(channel, nil, c.routes.Unsubscribe(channel))
}

// PublishTimed publishes a payload of the given size whose first 8 bytes
// carry the send timestamp, so receivers can compute response times.
func (c *Client) PublishTimed(channel string, size int) {
	if size < 8 {
		size = 8
	}
	payload := make([]byte, size)
	binary.LittleEndian.PutUint64(payload, uint64(c.sim.eng.Now().UnixNano()))
	c.publish(channel, payload)
}

func (c *Client) publish(channel string, payload []byte) {
	s := c.sim
	targets, version := c.routes.Publish(channel, s.eng.Now(), s.rng.Intn, c.reach)
	env := &message.Envelope{
		Type:        message.TypeData,
		ID:          c.gen.Next(),
		Channel:     channel,
		Payload:     payload,
		PlanVersion: version,
	}
	for _, sv := range targets {
		target := s.servers[sv]
		s.eng.At(c.arrivalAt(sv), func() {
			target.receive(channel, env)
		})
	}
}

// receive processes a delivery scheduled to this client.
func (c *Client) receive(channel string, env *message.Envelope) {
	if !c.alive {
		return
	}
	now := c.sim.eng.Now()
	switch env.Type {
	case message.TypeData, message.TypeForwarded:
		if c.dedup.Observe(env.ID) {
			return
		}
		c.store.Touch(channel, now)
		if c.OnData != nil && len(env.Payload) >= 8 {
			sentAt := time.Unix(0, int64(binary.LittleEndian.Uint64(env.Payload)))
			c.OnData(channel, env, sentAt)
		}
	case message.TypeSwitch, message.TypeWrongServer:
		add, drop := c.routes.Ring(env.RingServers, env.PlanVersion, c.reach)
		c.apply(plan.InboxChannel(c.id), add, drop)
		e := plan.Entry{Strategy: plan.Strategy(env.Strategy), Servers: env.Servers}
		add, drop, _ = c.routes.Learn(env.Channel, e, env.PlanVersion, env.Type == message.TypeSwitch, now, c.reach)
		c.apply(env.Channel, add, drop)
	}
}

// disconnected repairs what the client held on server after the connection
// died. The one thing the routing table cannot know is whether server was
// released for good; when it was, an entry still naming it is stale and the
// channel falls back to consistent hashing before it is repaired.
func (c *Client) disconnected(server plan.ServerID) {
	if !c.alive {
		return
	}
	released := c.sim.servers[server] == nil
	for _, ch := range c.routes.Lost(server) {
		if e, _, explicit := c.store.Peek(ch); released && explicit && slices.Contains(e.Servers, server) {
			c.store.Forget(ch)
		}
		add, drop := c.routes.Repair(ch, c.reach)
		c.apply(ch, add, drop)
	}
}

// reach is the routing table's view of the simulated network: a server can
// be used while it is alive.
func (c *Client) reach(server, _ plan.ServerID) bool {
	srv := c.sim.servers[server]
	return srv != nil && srv.alive
}

// apply sends a routing decision: subscribe on add first, then leave drop.
func (c *Client) apply(channel string, add, drop []plan.ServerID) {
	for _, sv := range add {
		c.subscribeOn(sv, channel)
	}
	for _, sv := range drop {
		c.unsubscribeOn(sv, channel)
	}
}

// arrivalAt returns the in-order arrival time at server for something this
// client sends now: the sampled uplink latency, clamped so it never precedes
// an earlier send on the same connection.
func (c *Client) arrivalAt(server plan.ServerID) time.Time {
	at := c.sim.eng.Now().Add(c.sim.delay(netsim.Client, netsim.Infra))
	if last := c.sendFIFO[server]; at.Before(last) {
		at = last
	}
	c.sendFIFO[server] = at
	return at
}

func (c *Client) subscribeOn(server plan.ServerID, channel string) {
	srv := c.sim.servers[server]
	if srv == nil {
		return
	}
	id := c.id
	c.sim.eng.At(c.arrivalAt(server), func() {
		srv.subscribe(id, channel)
	})
}

func (c *Client) unsubscribeOn(server plan.ServerID, channel string) {
	srv := c.sim.servers[server]
	if srv == nil {
		return
	}
	id := c.id
	c.sim.eng.At(c.arrivalAt(server), func() {
		srv.unsubscribe(id, channel)
	})
}

// ---------------------------------------------------------------------------
// Load balancer loop

// lbTick drives the balancer core once per unit, as the orchestrator's
// ticker does, and carries out what it decides on the engine: plans reach
// the dispatchers after a LAN hop, a spawn boots for BootDelay, and a
// released server is killed after ReleaseGrace.
func (s *Sim) lbTick() {
	r, ok := s.lb.Tick(s.eng.Now())
	if !ok {
		return
	}
	s.rebalances = append(s.rebalances, Rebalance{Time: s.eng.Now(), Reason: r.Reason})
	if r.Plan != nil {
		s.publishPlan()
	}
	if r.StartSpawn {
		s.eng.After(s.cfg.BootDelay, s.finishSpawn)
	}
	if r.Release != "" {
		s.eng.After(s.cfg.ReleaseGrace, func() { s.killServer(r.Release) })
	}
}

func (s *Sim) finishSpawn() {
	s.nextSpawn++
	id := fmt.Sprintf("pub-x%d", s.nextSpawn)
	s.addServer(id, uint32(0xE000+s.nextSpawn))
	s.lb.Joined(id, s.eng.Now())
	s.rebalances = append(s.rebalances, Rebalance{Time: s.eng.Now(), Reason: "server " + id + " joined"})
	s.publishPlan()
}

func (s *Sim) publishPlan() {
	for _, id := range s.serverIDs {
		target := s.servers[id]
		p := s.lb.Plan().Clone()
		s.eng.After(s.cfg.Path.LAN, func() {
			if target.alive {
				target.core.OnPlan(p, s.eng.Now())
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Periodic bookkeeping

func (s *Sim) unitTick() {
	var outMsgs, outBytes int64
	var maxLR, sumLR float64
	for _, id := range s.serverIDs {
		srv := s.servers[id]
		outMsgs += srv.unitMsgs
		outBytes += int64(srv.unitBytes)
		lr := srv.unitBytes / s.cfg.Unit.Seconds() / s.cfg.MaxOutgoingBps
		sumLR += lr
		if lr > maxLR {
			maxLR = lr
		}
		srv.unitMsgs = 0
		srv.unitBytes = 0
	}
	snap := UnitSnapshot{
		Time:              s.eng.Now(),
		Elapsed:           s.Elapsed(),
		ActiveServers:     len(s.serverIDs),
		Clients:           len(s.clients),
		OutMsgs:           outMsgs,
		OutBytes:          outBytes,
		MaxLoadRatio:      maxLR,
		DroppedDeliveries: s.dropped,
		InstanceSeconds:   s.InstanceSeconds(),
	}
	if n := len(s.serverIDs); n > 0 {
		snap.AvgLoadRatio = sumLR / float64(n)
	}
	if n := len(s.clients); n > 0 {
		entries := 0
		for _, c := range s.clients {
			entries += c.store.Len()
		}
		snap.AvgLocalPlanSize = float64(entries) / float64(n)
	}
	for _, fn := range s.onUnit {
		fn(snap)
	}
}

func (s *Sim) sweepClients() {
	now := s.eng.Now()
	for _, c := range s.clients {
		c.store.Sweep(now)
	}
}

// ---------------------------------------------------------------------------
// helpers

func (s *Sim) delay(from, to netsim.NodeClass) time.Duration {
	return s.cfg.Path.Delay(from, to, s.rng)
}
