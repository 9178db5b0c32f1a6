// Package loadgen holds the two pieces of an open-loop load generator that
// more than one driver shares: the periodic tick schedule and the payload
// stamp. Every message a publisher sends has an *intended* send instant fixed
// in advance by the schedule; latency is measured from that instant, not from
// whenever the publisher actually managed to write the message. A
// closed-loop harness that stamps at actual send time silently forgives its
// own backpressure — when the system under test makes the publisher late,
// the queueing delay it caused vanishes from the histogram (coordinated
// omission). Here it lands in the tail, where the IoT broker-benchmarking
// and Pulsar studies both say throughput-at-bounded-p99 must be read.
package loadgen

import "time"

// Schedule is one publisher's periodic tick plan: the i-th tick's intended
// send instant as an offset from the schedule epoch. The same (rate, phase)
// always yields the same plan, so a run is reproducible and two processes
// can agree on the schedule without communicating.
type Schedule struct {
	rate  float64
	phase time.Duration
}

// NewSchedule builds a tick plan. rate is ticks per second (must be > 0);
// phase offsets the whole plan (stagger publishers so their ticks do not
// align).
func NewSchedule(rate float64, phase time.Duration) Schedule {
	if rate <= 0 {
		panic("loadgen: schedule rate must be positive")
	}
	return Schedule{rate: rate, phase: phase}
}

// At returns the intended instant of tick i, computed multiplicatively —
// phase + i/rate in one float operation — so no truncation accumulates. The
// obvious alternative, adding a time.Duration(float64(time.Second)/rate)
// period per tick, loses the sub-nanosecond remainder every tick and
// under-schedules long runs; that exact bug lived in the RGame player loop.
func (s Schedule) At(i uint64) time.Duration {
	return s.phase + time.Duration(float64(i)*float64(time.Second)/s.rate)
}
