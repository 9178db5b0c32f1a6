// Package cluster runs a complete Dynamoth deployment inside one process:
// a pool of pub/sub server nodes (broker + local load analyzer +
// dispatcher), the load balancer, and a simulated cloud provider that boots
// and releases nodes on the balancer's demand. It is the quickest way to use
// or study the full system — examples, integration tests and the live
// experiments are built on it.
//
//	c, err := cluster.Start(cluster.Options{InitialServers: 2})
//	defer c.Stop()
//	client, err := c.NewClient(dynamoth.Config{})
//
// Optional WAN latency injection reproduces the paper's testbed conditions
// (§V-B): client↔server legs sample a King-dataset-like distribution while
// server↔server forwarding stays on the cloud LAN.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/clock"
	"github.com/dynamoth/dynamoth/internal/cloud"
	"github.com/dynamoth/dynamoth/internal/dispatcher"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/netsim"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/server"
	"github.com/dynamoth/dynamoth/internal/trace"
	"github.com/dynamoth/dynamoth/internal/transport"
)

// BalancerMode selects the load-balancing strategy.
type BalancerMode string

// Balancer modes.
const (
	// BalancerDynamoth runs the paper's hierarchical load balancer
	// (channel-level replication + system-level rebalancing + elasticity).
	BalancerDynamoth BalancerMode = "dynamoth"
	// BalancerConsistentHashing runs the baseline of Experiment 2.
	BalancerConsistentHashing BalancerMode = "consistent-hashing"
	// BalancerNone runs a fixed pool with no rebalancing.
	BalancerNone BalancerMode = "none"
)

// Options configures a cluster.
type Options struct {
	// InitialServers is the bootstrap pool size (default 1).
	InitialServers int
	// MaxServers caps elasticity (default 8, as in the paper).
	MaxServers int
	// Balancer selects the strategy (default BalancerDynamoth).
	Balancer BalancerMode
	// WANLatency injects sampled wide-area latency on the client↔server
	// path, as the paper's testbed did.
	WANLatency bool
	// MaxOutgoingBps is each server's egress capacity T_i
	// (default lla.DefaultMaxOutgoingBps).
	MaxOutgoingBps float64
	// Clock provides time; a scaled clock accelerates everything
	// coherently (default real).
	Clock clock.Clock
	// Seed seeds latency sampling (default 1).
	Seed int64
	// TWait overrides the minimum time between plans (default 10 s).
	TWait time.Duration
	// BootDelay overrides the cloud boot latency (default 10 s).
	BootDelay time.Duration
	// ReportEvery overrides the LLA report interval (default 3 s).
	ReportEvery time.Duration
	// OutputBuffer overrides the broker per-session output buffer.
	OutputBuffer int
	// ReplayDepth overrides each broker's per-channel replay ring depth
	// (0 = server.DefaultReplayDepth, negative = replay disabled).
	ReplayDepth int
	// ReplaceFailedServers asks the cloud for a replacement node after
	// each failure evacuation (default: the pool just shrinks).
	ReplaceFailedServers bool
	// Logger receives structured logs from every component (balancer,
	// servers, clients), component-tagged. Nil discards.
	Logger *slog.Logger
}

// Cluster is a running deployment.
type Cluster struct {
	opts Options
	clk  clock.Clock

	mu      sync.Mutex
	nodes   map[plan.ServerID]*server.Node
	nextNum uint32

	dialer   *transport.MemDialer // client-facing (WAN latency if enabled)
	lan      *transport.MemDialer // the balancer's links: no WAN latency
	faults   *netsim.Faults       // fault injection on every path to a node
	orch     *balancer.Orchestrator
	provider *cloud.Simulator
	rec      *trace.Recorder // shared flight recorder (every component appends)

	// lbReg is the balancer's scrape registry, built lazily by
	// BalancerRegistry (the orchestrator is optional).
	lbRegOnce sync.Once
	lbReg     *obs.Registry

	stopOnce sync.Once
}

// Start boots a cluster.
func Start(opts Options) (*Cluster, error) {
	if opts.InitialServers <= 0 {
		opts.InitialServers = 1
	}
	if opts.MaxServers <= 0 {
		opts.MaxServers = 8
	}
	if opts.MaxServers < opts.InitialServers {
		opts.MaxServers = opts.InitialServers
	}
	if opts.Balancer == "" {
		opts.Balancer = BalancerDynamoth
	}
	if opts.MaxOutgoingBps <= 0 {
		opts.MaxOutgoingBps = lla.DefaultMaxOutgoingBps
	}
	if opts.Clock == nil {
		opts.Clock = clock.NewReal()
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	c := &Cluster{
		opts:  opts,
		clk:   opts.Clock,
		nodes: make(map[plan.ServerID]*server.Node),
	}

	// One shared flight recorder for the whole deployment: every component
	// appends into the same ring, so the timeline view sees a rebalance
	// end-to-end (trigger on the balancer through migration on the clients).
	c.rec = trace.NewRecorder(trace.DefaultCapacity)
	c.rec.SetNow(c.clk.Now)
	if opts.Logger != nil {
		c.rec.SetLogger(trace.Component(opts.Logger, "reconfig"))
	}

	c.faults = netsim.NewFaults(opts.Seed)
	lanOpts := transport.MemDialerOptions{Clock: opts.Clock, Faults: c.faults}
	c.lan = transport.NewMemDialer(nil, lanOpts)
	dialerOpts := lanOpts
	if opts.WANLatency {
		dialerOpts.Latency = netsim.NewPathModel()
		dialerOpts.Seed = opts.Seed
	}
	c.dialer = transport.NewMemDialer(nil, dialerOpts)

	// Bootstrap pool.
	names := make([]plan.ServerID, 0, opts.InitialServers)
	for i := 1; i <= opts.InitialServers; i++ {
		names = append(names, fmt.Sprintf("pub%d", i))
	}
	initial := plan.New(names...)
	initial.Version = 1
	for _, id := range names {
		if err := c.startNode(id, initial); err != nil {
			c.Stop()
			return nil, err
		}
	}

	c.provider = cloud.NewSimulator(cloud.Config{
		BootDelay: opts.BootDelay,
		Clock:     opts.Clock,
	})

	// Load balancer.
	if opts.Balancer != BalancerNone {
		cfg := balancer.DefaultConfig()
		cfg.MaxServers = opts.MaxServers
		cfg.MinServers = opts.InitialServers
		if opts.TWait > 0 {
			cfg.TWait = opts.TWait
		}
		var gen balancer.PlanGenerator
		switch opts.Balancer {
		case BalancerConsistentHashing:
			gen = balancer.NewCHPlanner(cfg)
		default:
			pinned := func(s string) bool { return s == names[0] }
			gen = balancer.NewPlanner(cfg, plan.IsControlChannel, pinned, opts.MaxOutgoingBps)
		}
		reportEvery := opts.ReportEvery
		if reportEvery <= 0 {
			reportEvery = lla.DefaultReportEvery
		}
		orch, err := balancer.NewOrchestrator(balancer.OrchestratorOptions{
			Planner:  gen,
			Config:   cfg,
			Initial:  initial,
			Dialer:   c.lan,
			Cloud:    clusterCloud{c},
			Clock:    opts.Clock,
			Recorder: c.rec,
			Logger:   opts.Logger,
			// Staleness threshold: a few missed report intervals. Probes run
			// at report cadence, so K=3 misses (the default) and staleness
			// agree on the detection window (~4×ReportEvery) for a hard
			// crash.
			Detect:        &lla.DetectorConfig{StaleAfter: 4 * reportEvery},
			ProbeInterval: reportEvery,
			OnServerDead:  func(id plan.ServerID) { c.teardownNode(id) },
			ReplaceFailed: opts.ReplaceFailedServers,
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.orch = orch
		go c.orch.Run()
	}
	return c, nil
}

// NewClient returns a Dynamoth client connected to the cluster. The zero
// Config is valid.
func (c *Cluster) NewClient(cfg dynamoth.Config) (*dynamoth.Client, error) {
	c.mu.Lock()
	var servers []string
	p := c.currentPlanLocked()
	servers = append(servers, p.RingServers...)
	c.mu.Unlock()
	if len(servers) == 0 {
		return nil, errors.New("cluster: no servers")
	}
	if cfg.Clock == nil {
		cfg.Clock = c.clk
	}
	if cfg.Recorder == nil {
		cfg.Recorder = c.rec
	}
	if cfg.Logger == nil {
		cfg.Logger = c.opts.Logger
	}
	return dynamoth.ConnectWithDialer(c.dialer, servers, cfg)
}

// Servers returns the IDs of the currently running nodes.
func (c *Cluster) Servers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	return out
}

// ActiveServers returns the number of running nodes.
func (c *Cluster) ActiveServers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// PlanVersion returns the current plan version (1 = bootstrap).
func (c *Cluster) PlanVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.currentPlanLocked().Version
}

// Rebalances returns the number of plan changes the balancer performed.
func (c *Cluster) Rebalances() int {
	if c.orch == nil {
		return 0
	}
	return c.orch.Rebalances()
}

// Recorder returns the cluster's shared flight recorder: every component
// (balancer, dispatchers, clients) appends reconfiguration events into it.
func (c *Cluster) Recorder() *trace.Recorder { return c.rec }

// Events returns the flight-recorder events with Seq > since still held in
// the ring, oldest first — the programmatic twin of /debug/events.
func (c *Cluster) Events(since uint64) []trace.Event {
	return c.rec.Events(since)
}

// Timelines groups the recorded events into per-rebalance phase timelines —
// the programmatic twin of /debug/rebalances.
func (c *Cluster) Timelines() []trace.Rebalance {
	return c.rec.Timelines()
}

// Failures returns how many servers the balancer's failure detector
// declared dead and evacuated from the plan.
func (c *Cluster) Failures() int {
	if c.orch == nil {
		return 0
	}
	return c.orch.Failures()
}

// Crash kills a node abruptly: its broker drops every connection with an
// error, the dialer forgets its endpoint, and the cloud instance stops
// billing. Unlike a graceful release, the balancer is not told — the
// failure detector has to notice and repair the plan.
func (c *Cluster) Crash(id string) error {
	if !c.teardownNode(id) {
		return fmt.Errorf("cluster: no node %s", id)
	}
	_ = c.provider.Crash(id) // bootstrap nodes are not provider instances
	return nil
}

// PartitionServer blackholes a node's endpoint: connections stay up while
// publishes, deliveries, load reports and plan pushes silently vanish — the
// failure mode probes and report staleness exist to catch. Undo with
// HealServer.
func (c *Cluster) PartitionServer(id string) error {
	c.mu.Lock()
	_, ok := c.nodes[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no node %s", id)
	}
	c.faults.Blackhole(id)
	return nil
}

// HealServer reconnects a partitioned node's endpoint.
func (c *Cluster) HealServer(id string) {
	c.faults.Heal(id)
}

// SetDropRate makes a fraction p (0..1) of packets to and from the node
// vanish, in both the publish and delivery direction (load reports and plan
// pushes included).
func (c *Cluster) SetDropRate(id string, p float64) {
	c.faults.SetDropRate(id, p)
}

// InstanceHours returns cloud usage beyond the bootstrap pool.
func (c *Cluster) InstanceHours() float64 {
	if c.provider == nil {
		return 0
	}
	return c.provider.InstanceHours()
}

// Stop shuts the cluster down.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		if c.orch != nil {
			c.orch.Stop()
		}
		c.mu.Lock()
		nodes := make([]*server.Node, 0, len(c.nodes))
		for _, n := range c.nodes {
			nodes = append(nodes, n)
		}
		c.nodes = make(map[plan.ServerID]*server.Node)
		c.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
		c.dialer.Close()
		c.lan.Close()
	})
}

// ---------------------------------------------------------------------------
// internals

func (c *Cluster) currentPlanLocked() *plan.Plan {
	if c.orch != nil {
		return c.orch.Plan()
	}
	ids := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		ids = append(ids, id)
	}
	p := plan.New(ids...)
	p.Version = 1
	return p
}

// teardownNode fences one node: endpoint removed from both dialers, the
// broker shut down (dropping every session, the balancer's link included).
// Used by Crash, by a release and as the balancer's OnServerDead fence —
// idempotent, so a detected crash after an explicit Crash is a no-op.
func (c *Cluster) teardownNode(id plan.ServerID) bool {
	c.mu.Lock()
	n := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	c.dialer.RemoveServer(id)
	c.lan.RemoveServer(id)
	if n != nil {
		n.Close()
	}
	return n != nil
}

// forward implements dispatcher forwarding across nodes (cloud LAN).
func (c *Cluster) forward(serverID plan.ServerID, channel string, payload []byte) error {
	c.mu.Lock()
	n := c.nodes[serverID]
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: no node %s", serverID)
	}
	n.Broker.Publish(channel, payload)
	return nil
}

// startNode creates one node and registers it with both dialers.
func (c *Cluster) startNode(id plan.ServerID, initial *plan.Plan) error {
	c.mu.Lock()
	c.nextNum++
	num := 0xD000 + c.nextNum
	c.mu.Unlock()

	n, err := server.New(server.Options{
		ID:             id,
		NodeNum:        num,
		Initial:        initial.Clone(),
		Forwarder:      dispatcher.ForwarderFunc(c.forward),
		Clock:          c.clk,
		MaxOutgoingBps: c.opts.MaxOutgoingBps,
		ReportEvery:    c.opts.ReportEvery,
		OutputBuffer:   c.opts.OutputBuffer,
		ReplayDepth:    c.opts.ReplayDepth,
		Recorder:       c.rec,
		Logger:         c.opts.Logger,
	})
	if err != nil {
		return fmt.Errorf("cluster: starting node %s: %w", id, err)
	}

	c.mu.Lock()
	c.nodes[id] = n
	c.mu.Unlock()
	c.dialer.AddServer(id, n.Broker)
	c.lan.AddServer(id, n.Broker)
	return nil
}

// clusterCloud adapts the cluster to balancer.CloudProvider: spawning boots
// a cloud instance and then starts a full node on it.
type clusterCloud struct{ c *Cluster }

// Spawn implements balancer.CloudProvider.
func (cc clusterCloud) Spawn(ctx context.Context) (plan.ServerID, error) {
	id, err := cc.c.provider.Spawn(ctx)
	if err != nil {
		return "", err
	}
	if err := cc.c.startNode(id, cc.c.orch.Plan()); err != nil {
		_ = cc.c.provider.Release(id)
		return "", err
	}
	return id, nil
}

// Release implements balancer.CloudProvider.
func (cc clusterCloud) Release(id plan.ServerID) error {
	cc.c.teardownNode(id)
	return cc.c.provider.Release(id)
}
