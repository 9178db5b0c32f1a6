// Command dynamoth-lb runs the Dynamoth load balancer against a set of
// dynamoth-node daemons: it subscribes to every node's LLA report channel,
// runs the two-step rebalancer (Algorithm 1 + Algorithm 2 + low-load
// release) and publishes new plans on every node's plan channel.
//
// Usage:
//
//	dynamoth-lb -node pub1=host1:6379 -node pub2=host2:6379
//
// The node set is fixed for a daemon instance (the elastic spawn/despawn of
// the paper needs a cloud provider; the in-process cluster package and the
// experiments exercise that path). The LB still migrates and replicates
// channels across the given pool, so a static deployment gets the full
// hierarchical balancing.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dynamoth/dynamoth/internal/balancer"
	"github.com/dynamoth/dynamoth/internal/buildinfo"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/trace"
	"github.com/dynamoth/dynamoth/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dynamoth-lb:", err)
		os.Exit(1)
	}
}

type nodeList map[string]string

func (n nodeList) String() string {
	parts := make([]string, 0, len(n))
	for id, addr := range n {
		parts = append(parts, id+"="+addr)
	}
	return strings.Join(parts, ",")
}

func (n nodeList) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok || id == "" || addr == "" {
		return fmt.Errorf("expected id=host:port, got %q", v)
	}
	n[id] = addr
	return nil
}

func run() error {
	nodes := nodeList{}
	var (
		twait      = flag.Duration("twait", 10*time.Second, "minimum time between plan generations")
		maxBps     = flag.Float64("max-bps", lla.DefaultMaxOutgoingBps, "assumed server capacity for unreported nodes")
		dialTO     = flag.Duration("dial-timeout", 5*time.Second, "deadline for dialing nodes")
		detect     = flag.Bool("detect", true, "detect node failures (PING probes + report staleness) and repair the plan")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "liveness probe interval")
		staleAfter = flag.Duration("stale-after", 4*lla.DefaultReportEvery, "report silence that marks a node dead")
		admin      = flag.String("admin-addr", "", "admin HTTP listen address for /metrics, /healthz, /statusz, /debug/pprof, /debug/events, /debug/rebalances (empty = disabled)")
		logLvl     = flag.String("log-level", "info", "structured log level on stderr (debug, info, warn, error)")
	)
	flag.Var(nodes, "node", "pub/sub node as id=host:port (repeatable)")
	flag.Parse()
	if len(nodes) == 0 {
		return fmt.Errorf("at least one -node required")
	}

	level, err := trace.ParseLevel(*logLvl)
	if err != nil {
		return fmt.Errorf("parsing -log-level: %w", err)
	}
	logger := trace.NewStderrLogger(level)
	rec := trace.NewRecorder(0)

	ids := make([]string, 0, len(nodes))
	addrs := make(map[plan.ServerID]string, len(nodes))
	for id, addr := range nodes {
		ids = append(ids, id)
		addrs[id] = addr
	}
	initial := plan.New(ids...)
	initial.Version = 1

	dialer := transport.NewTCPDialer(addrs)
	dialer.DialTimeout = *dialTO

	cfg := balancer.DefaultConfig()
	cfg.TWait = *twait
	cfg.MaxServers = len(ids)
	cfg.MinServers = len(ids) // fixed pool: never release servers
	pinned := func(s string) bool { return s == ids[0] }
	planner := balancer.NewPlanner(cfg, plan.IsControlChannel, pinned, *maxBps)

	orchOpts := balancer.OrchestratorOptions{
		Planner:       planner,
		Config:        cfg,
		Initial:       initial,
		Dialer:        dialer,
		ProbeInterval: *probeEvery,
		Recorder:      rec,
		Logger:        logger,
	}
	if *detect {
		orchOpts.Detect = &lla.DetectorConfig{StaleAfter: *staleAfter}
	}
	orch, err := balancer.NewOrchestrator(orchOpts)
	if err != nil {
		return err
	}
	go orch.Run()
	defer orch.Stop()

	if *admin != "" {
		reg := obs.NewRegistry()
		orch.RegisterMetrics(reg)
		aln, err := obs.Serve(*admin, obs.NewAdminMux(reg, orch.Status,
			obs.Route{Path: "/debug/events", Handler: rec.EventsHandler()},
			obs.Route{Path: "/debug/rebalances", Handler: rec.RebalancesHandler()}))
		if err != nil {
			return fmt.Errorf("admin listen %s: %w", *admin, err)
		}
		defer aln.Close()
		fmt.Printf("admin http on %s\n", aln.Addr())
	}

	fmt.Printf("dynamoth-lb (%s) balancing %d nodes: %s\n", buildinfo.Version, len(ids), nodes.String())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	return nil
}
