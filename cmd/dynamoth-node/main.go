// Command dynamoth-node runs one Dynamoth pub/sub server node: a Redis-like
// broker served over RESP/TCP, with the collocated local load analyzer and
// dispatcher (paper Figure 1). Nodes are independent; the dispatcher reaches
// peer nodes through their TCP addresses for reconfiguration forwarding.
//
// Usage:
//
//	dynamoth-node -id pub1 -listen :6379 \
//	    -peer pub2=host2:6379 -peer pub3=host3:6379 \
//	    -servers pub1,pub2,pub3
//
// -servers lists the bootstrap plan's server set (must match on every node
// and on the load balancer).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/url"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"github.com/dynamoth/dynamoth/internal/buildinfo"
	"github.com/dynamoth/dynamoth/internal/lla"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/server"
	"github.com/dynamoth/dynamoth/internal/trace"
	"github.com/dynamoth/dynamoth/internal/transport"
)

type peerList map[string]string

func (p peerList) String() string {
	parts := make([]string, 0, len(p))
	for id, addr := range p {
		parts = append(parts, id+"="+addr)
	}
	return strings.Join(parts, ",")
}

func (p peerList) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok || id == "" || addr == "" {
		return fmt.Errorf("expected id=host:port, got %q", v)
	}
	p[id] = addr
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dynamoth-node:", err)
		os.Exit(1)
	}
}

func run() error {
	peers := peerList{}
	var (
		id      = flag.String("id", "pub1", "this node's server ID in plans")
		listen  = flag.String("listen", ":6379", "RESP listen address")
		servers = flag.String("servers", "pub1", "comma-separated bootstrap server IDs (plan 0)")
		nodeNum = flag.Uint("node", 0xD001, "unique numeric node ID for control envelopes")
		maxBps  = flag.Float64("max-bps", lla.DefaultMaxOutgoingBps, "theoretical max outgoing bandwidth T_i (bytes/s)")
		dialTO  = flag.Duration("dial-timeout", 5*time.Second, "deadline for dialing peer nodes (forwarding)")
		admin   = flag.String("admin-addr", "", "admin HTTP listen address for /metrics, /healthz, /statusz, /debug/pprof, /debug/events, /debug/rebalances, /debug/latency, /debug/freemem (empty = disabled)")
		logLvl  = flag.String("log-level", "warn", "structured log level on stderr (debug, info, warn, error)")
		reuse   = flag.Bool("reuseport", false, "set SO_REUSEPORT on the RESP listener (linux; lets several nodes share one address)")
		rcap    = flag.Int("replay-cap", 0, "per-channel replay ring depth for cursor-based resumable subscription (0 = default, negative = disabled)")
		chanCap = flag.Int("channel-cap", 0, "channels the node keeps a record (replay ring, LLA counters) for at once; subscribed ones always, LLA traffic past it folds into an aggregate bucket (0 = default, negative = unbounded)")
	)
	flag.Var(peers, "peer", "peer node as id=host:port (repeatable)")
	flag.Parse()

	level, err := trace.ParseLevel(*logLvl)
	if err != nil {
		return fmt.Errorf("parsing -log-level: %w", err)
	}
	// Best-effort: lift the fd soft limit toward the hard limit so the
	// reactor's connection budget is the machine's, not the shell's default.
	transport.RaiseFDLimit(0) //nolint:errcheck
	logger := trace.NewStderrLogger(level)
	rec := trace.NewRecorder(0)

	bootstrap := strings.Split(*servers, ",")
	initial := plan.New(bootstrap...)
	initial.Version = 1

	dialer := transport.NewTCPDialer(nil)
	dialer.DialTimeout = *dialTO
	for pid, addr := range peers {
		dialer.AddServer(pid, addr)
	}
	fwd := transport.NewPooledForwarder(dialer)
	defer fwd.Close()

	n, err := server.New(server.Options{
		ID:             *id,
		NodeNum:        uint32(*nodeNum),
		Initial:        initial,
		Forwarder:      fwd,
		MaxOutgoingBps: *maxBps,
		ReplayDepth:    *rcap,
		ChannelCap:     *chanCap,
		Recorder:       rec,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer n.Close()

	ln, err := transport.Listen(*listen, transport.ListenConfig{ReusePort: *reuse})
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	fmt.Printf("dynamoth-node %s (%s) serving RESP on %s (conn-core: %s, peers: %s)\n",
		*id, buildinfo.Version, ln.Addr(), n.ConnStats().Core, peers.String())

	if *admin != "" {
		aln, err := obs.Serve(*admin, obs.NewAdminMux(n.Registry(), n.Status,
			obs.Route{Path: "/debug/events", Handler: rec.EventsHandler()},
			obs.Route{Path: "/debug/rebalances", Handler: rec.RebalancesHandler()},
			// Per-stage latency waterfall: e2e plus ingress/fanout/flush
			// summaries and slow channels.
			obs.Route{Path: "/debug/latency", Handler: obs.JSONHandler(
				func() any { return n.Waterfall() })},
			// Forces a GC and returns freed pages to the OS, so memory
			// harnesses (the channel soak) can read a live-set RSS instead
			// of the allocation high-water mark.
			obs.Route{Path: "/debug/freemem", Handler: func(body *bytes.Buffer, _ url.Values) obs.Reply {
				debug.FreeOSMemory()
				body.WriteString("ok\n")
				return obs.Reply{}
			}}))
		if err != nil {
			ln.Close()
			return fmt.Errorf("admin listen %s: %w", *admin, err)
		}
		defer aln.Close()
		// Printed on its own line so harnesses passing -admin-addr :0 can
		// discover the bound port.
		fmt.Printf("admin http on %s\n", aln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- n.ServeTCP(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sigc:
		fmt.Printf("received %v, shutting down\n", s)
		ln.Close()
		return nil
	}
}
