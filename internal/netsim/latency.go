// Package netsim models the network the paper's testbed emulated: wide-area
// latencies sampled per message (their King-dataset injection, §V-B) and the
// capacity limits that make pub/sub servers saturate (their NIC egress and
// Redis client output buffers, §III-A).
//
// It provides:
//
//   - LogNormal / PathModel: one-way WAN delay sampling with the paper's
//     three-case rule (infra→client, client→infra, client→client),
//   - Pipe: a serialization link with finite capacity and FIFO queueing —
//     the mechanism behind load ratios and response-time spikes,
//   - ConnQueue: a bounded per-connection output buffer that kills the
//     connection on overflow, like Redis' client-output-buffer-limit,
//   - DelayQueue: a clock-driven scheduler that delivers callbacks at their
//     simulated arrival times in live (goroutine) mode.
package netsim

import (
	"math"
	"math/rand"
	"time"
)

// NodeClass classifies an endpoint for the paper's latency injection rule:
// infrastructure nodes (pub/sub servers, LLAs, dispatchers, load balancer)
// live in the cloud LAN; clients reach them over the WAN.
type NodeClass uint8

// Node classes.
const (
	Infra NodeClass = iota + 1
	Client
)

// LatencyModel samples one-way network delays.
type LatencyModel interface {
	// Sample draws one one-way delay using rng.
	Sample(rng *rand.Rand) time.Duration
}

// LogNormal is a log-normal one-way delay distribution clipped to
// [Min, Max]. It stands in for the (non-redistributable) King dataset: the
// paper filtered King to North America; measured NA medians are a few tens
// of milliseconds with a heavy right tail, which a log-normal reproduces.
type LogNormal struct {
	// Median is the distribution median (the log-normal's exp(mu)).
	Median time.Duration
	// Sigma is the log-space standard deviation (tail heaviness).
	Sigma float64
	// Min and Max clip samples.
	Min, Max time.Duration
}

var _ LatencyModel = (*LogNormal)(nil)

// NewKingLike returns the default WAN model used across the experiments:
// median 32 ms, sigma 0.45, clipped to [5 ms, 250 ms]. Unloaded
// publish→notify round trips then average ≈75 ms, matching the paper's
// steady state (Fig. 5c).
func NewKingLike() *LogNormal {
	return &LogNormal{
		Median: 32 * time.Millisecond,
		Sigma:  0.45,
		Min:    5 * time.Millisecond,
		Max:    250 * time.Millisecond,
	}
}

// Sample implements LatencyModel.
func (l *LogNormal) Sample(rng *rand.Rand) time.Duration {
	mu := math.Log(l.Median.Seconds())
	s := math.Exp(mu + l.Sigma*rng.NormFloat64())
	d := time.Duration(s * float64(time.Second))
	if d < l.Min {
		d = l.Min
	}
	if d > l.Max {
		d = l.Max
	}
	return d
}

// Fixed is a constant-delay model, useful for deterministic tests.
type Fixed time.Duration

var _ LatencyModel = Fixed(0)

// Sample implements LatencyModel.
func (f Fixed) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// PathModel applies the paper's three-case injection rule (§V-B) on top of a
// WAN model: one sample for client↔infra paths, two samples (round trip) for
// client→client, and a small constant LAN delay for infra→infra (the paper's
// servers shared a LAN, so that leg was effectively free).
type PathModel struct {
	WAN LatencyModel
	// LAN is the infra→infra delay (cloud-internal hop, e.g. dispatcher
	// forwarding during reconfiguration).
	LAN time.Duration
}

// NewPathModel builds a PathModel over the default King-like WAN with a
// 0.5 ms LAN.
func NewPathModel() *PathModel {
	return &PathModel{WAN: NewKingLike(), LAN: 500 * time.Microsecond}
}

// Delay samples the injected latency for a message from one node class to
// another.
func (p *PathModel) Delay(from, to NodeClass, rng *rand.Rand) time.Duration {
	switch {
	case from == Infra && to == Infra:
		return p.LAN
	case from == Client && to == Client:
		return p.WAN.Sample(rng) + p.WAN.Sample(rng)
	default:
		return p.WAN.Sample(rng)
	}
}
