// Package balancer implements the Dynamoth load balancer (paper §III): it
// aggregates the reports of all local load analyzers, computes per-server
// load ratios (eq. 1), and generates new plans through the two-step
// rebalancer — channel-level replication decisions (Algorithm 1) followed by
// system-level rebalancing (Algorithm 2 for high load, plus the low-load
// server-release pass the paper describes in prose). It also contains the
// consistent-hashing baseline that Experiment 2 compares against.
//
// Planning is pure (metrics in, plan out), and so is the loop around it:
// Core folds reports, gates rounds on T_wait, coalesces spawns and repairs
// failures without goroutines or clocks. The live Orchestrator and the
// discrete-event simulator both drive a Core, so they execute identical
// decisions.
package balancer

import "time"

// Config holds every threshold of the paper's algorithms. The paper set its
// values "empirically based on the capabilities of the machines"; these
// defaults are calibrated against the capacities in DESIGN.md §4/§5.
type Config struct {
	// LRHigh triggers high-load rebalancing when any server's load ratio
	// exceeds it (Algorithm 2 line 5).
	LRHigh float64
	// LRSafe is the target the rebalancer brings an overloaded server
	// below (Algorithm 2 line 9).
	LRSafe float64
	// LRLowAvg triggers low-load rebalancing when the global average load
	// ratio falls below it (§III-B4).
	LRLowAvg float64
	// LRMaxAccept is the highest estimated load ratio a server may reach
	// by receiving migrated channels (keeps rebalancing from overloading
	// the receiver, Algorithm 2's "recalculated as well" clause).
	LRMaxAccept float64

	// TWait is the minimum time between plan generations (§III-B).
	TWait time.Duration

	// AllSubsThreshold is Algorithm 1's P_ratio threshold
	// (publications per subscriber per second).
	AllSubsThreshold float64
	// PublicationThreshold is the minimum publications/second before
	// all-subscribers replication is considered.
	PublicationThreshold float64
	// AllPubsThreshold is Algorithm 1's S_ratio threshold
	// (subscribers per publication per second).
	AllPubsThreshold float64
	// SubscriberThreshold is the minimum subscriber count before
	// all-publishers replication is considered.
	SubscriberThreshold float64
	// MaxReplicas caps the replica count Algorithm 1 may request.
	MaxReplicas int

	// MinServers and MaxServers bound the server pool (the paper's
	// Experiment 2 used 1..8).
	MinServers int
	MaxServers int

	// Window is how many recent time units of metrics the planner
	// averages over.
	Window int
}

// DefaultConfig returns the calibrated defaults (DESIGN.md §5).
func DefaultConfig() Config {
	return Config{
		LRHigh:               0.90,
		LRSafe:               0.75,
		LRLowAvg:             0.40,
		LRMaxAccept:          0.80,
		TWait:                10 * time.Second,
		AllSubsThreshold:     1500, // pubs/sec per subscriber a single server tolerates
		PublicationThreshold: 600,  // pubs/sec
		AllPubsThreshold:     30,   // subscribers per pub/sec a single server tolerates
		SubscriberThreshold:  300,  // subscribers
		MaxReplicas:          8,
		MinServers:           1,
		MaxServers:           8,
		Window:               5,
	}
}
