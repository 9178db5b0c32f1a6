package workload

import "time"

// FDHeadroom is the descriptor slack kept free for the driver's own files,
// epoll instance, and the publisher connection (a target nearer the limit is capped).
const FDHeadroom = 256

// ConnBenchOptions configures the C100k connection-scale driver: one process
// holding tens of thousands of subscriber connections against a broker, all
// multiplexed on the driver's own epoll loop (a goroutine-per-connection
// load generator would hit the same per-connection memory wall the reactor
// core exists to remove — the driver must be lighter than the server it
// measures).
type ConnBenchOptions struct {
	// Addr is the broker's RESP address.
	Addr string
	// SourceIPs are local addresses to bind client sockets to, round-robin.
	// One source IP caps out at the ~28k ephemeral ports of a single
	// (src,dst) pair; going past that needs more loopback IPs (127.0.0.2,
	// 127.0.0.3, … work unconfigured on Linux). Empty = kernel default.
	SourceIPs []string
	// Conns is the target connection count. The driver caps it to the
	// process fd budget (soft RLIMIT_NOFILE minus headroom) and reports
	// both numbers.
	Conns int
	// Groups is how many channels the subscribers spread over (default 64).
	Groups int
	// PublishRate is the publisher's messages/second across all groups
	// (default 50).
	PublishRate int
	// Duration is the steady-state measurement window after all
	// connections are up (default 5s).
	Duration time.Duration
	// ChurnPerSec is how many connections per second unsubscribe and
	// resubscribe during the window (default 100) — the harness must show
	// delivery latency holding under subscription churn, not just at rest.
	ChurnPerSec int
	// ConnectBatch bounds concurrent non-blocking connects (default 256).
	ConnectBatch int
	// OnEstablished, when non-nil, runs after the ramp completes and
	// before the measurement window, with every connection still held —
	// the orchestrator's chance to sample server-side memory.
	OnEstablished func(achieved int)
}

// ConnBenchResult is the driver-side outcome. Server-side figures (RSS,
// conn counters) are collected by the orchestrator that owns the broker
// process.
type ConnBenchResult struct {
	// Target is the requested connection count, Achieved what the driver
	// actually established, FDLimit the soft limit that capped it.
	Target   int    `json:"target"`
	Achieved int    `json:"achieved"`
	FDLimit  uint64 `json:"fdLimit"`
	// ConnectSecs is the wall time to establish (and subscribe) every
	// connection; ConnsPerSec the resulting accept throughput.
	ConnectSecs float64 `json:"connectSecs"`
	ConnsPerSec float64 `json:"connsPerSec"`
	// Published and Delivered count timestamped messages sent and
	// received during the window; ControlMsgs counts server control
	// envelopes (SWITCH / plan announcements) received on subscribed
	// channels; ChurnOps counts unsubscribe+resubscribe cycles performed.
	Published   uint64 `json:"published"`
	Delivered   uint64 `json:"delivered"`
	ControlMsgs uint64 `json:"controlMsgs"`
	ChurnOps    uint64 `json:"churnOps"`
	// Delivery latency quantiles over the window, microseconds
	// (publish-stamp to driver receipt, same process clock).
	DeliveryP50us float64 `json:"deliveryP50Us"`
	DeliveryP99us float64 `json:"deliveryP99Us"`
	DeliveryMaxus float64 `json:"deliveryMaxUs"`
	// Samples is how many deliveries carried a usable stamp; StampErrors
	// counts digit-led payloads that still failed to parse (a non-zero
	// value means cross-frame corruption — a driver or server bug).
	Samples     int    `json:"samples"`
	StampErrors uint64 `json:"stampErrors"`
	// BehindSchedule counts publisher ticks sent more than one period past
	// their intended instant. Stamps carry the intended time, so that lag
	// also lands in the latency quantiles instead of being forgiven — a
	// spike here with quiet quantiles would mean the driver, not the
	// broker, was the bottleneck.
	BehindSchedule uint64 `json:"behindSchedule"`
}
