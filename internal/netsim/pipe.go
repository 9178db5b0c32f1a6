package netsim

import (
	"time"
)

// Pipe models a serialization link of finite capacity with an unbounded FIFO
// queue: each payload of size s occupies the link for s/capacity seconds, so
// when the offered load exceeds capacity a backlog builds and every
// subsequent payload departs later. This single mechanism produces both of
// the phenomena the paper's evaluation hinges on: response times that climb
// as a server approaches its maximum outgoing bandwidth T_i, and collapse
// once the load ratio exceeds ~1 (Fig. 4, Fig. 5c, Fig. 6).
//
// Pipe is driven by explicit timestamps, so the same code serves the
// discrete-event simulator and the live in-memory transport. It is not
// concurrency-safe; callers serialize access (one Pipe belongs to one
// simulated link).
type Pipe struct {
	capacity  float64 // units per second (bytes/s or msgs/s)
	nextFree  time.Time
	sentUnits float64 // cumulative units accepted
}

// NewPipe creates a pipe with the given capacity in units/second.
func NewPipe(capacity float64) *Pipe {
	if capacity <= 0 {
		panic("netsim: pipe capacity must be positive")
	}
	return &Pipe{capacity: capacity}
}

// Capacity returns the configured capacity in units/second.
func (p *Pipe) Capacity() float64 { return p.capacity }

// Send enqueues a payload of the given size at time now and returns its
// departure time (when the last byte leaves the link).
func (p *Pipe) Send(now time.Time, units float64) time.Time {
	start := now
	if p.nextFree.After(start) {
		start = p.nextFree
	}
	p.nextFree = start.Add(time.Duration(units / p.capacity * float64(time.Second)))
	p.sentUnits += units
	return p.nextFree
}

// QueueDelay returns how long a payload enqueued at now would wait before
// transmission starts.
func (p *Pipe) QueueDelay(now time.Time) time.Duration {
	if p.nextFree.After(now) {
		return p.nextFree.Sub(now)
	}
	return 0
}

// Backlogged reports whether the link still has queued work at now.
func (p *Pipe) Backlogged(now time.Time) bool { return p.nextFree.After(now) }

// SentUnits returns the cumulative units accepted since creation (the
// measured outgoing traffic M_i of eq. 1, before capacity clipping).
func (p *Pipe) SentUnits() float64 { return p.sentUnits }

// ConnQueue models a bounded per-connection output buffer, the analog of
// Redis' client-output-buffer-limit for pub/sub clients: if the server
// queues more than Limit messages for one connection, the connection is
// declared dead and subsequent sends are dropped (Fig. 4b's failure mode).
//
// The buffer drains at the connection's drain rate (receiver read speed);
// occupancy is tracked in virtual time like Pipe.
type ConnQueue struct {
	pipe     *Pipe
	limit    int
	dead     bool
	inFlight int
	// departures holds the departure times of queued messages so occupancy
	// can be decremented as virtual time passes; kept as a ring to stay
	// allocation-free in steady state.
	departures []time.Time
	head, tail int
}

// NewConnQueue creates a connection buffer draining at drainPerSec
// messages/second, failing beyond limit queued messages.
func NewConnQueue(drainPerSec float64, limit int) *ConnQueue {
	if limit <= 0 {
		panic("netsim: connection queue limit must be positive")
	}
	return &ConnQueue{
		pipe:       NewPipe(drainPerSec),
		limit:      limit,
		departures: make([]time.Time, limit+1),
	}
}

// Send enqueues one message at now. It returns the message's delivery
// (drain-complete) time, or ok=false if the connection is dead or the buffer
// overflowed — in which case the connection is now dead and the message is
// dropped, like Redis disconnecting a slow pub/sub client.
func (q *ConnQueue) Send(now time.Time) (depart time.Time, ok bool) {
	if q.dead {
		return time.Time{}, false
	}
	q.expire(now)
	if q.inFlight >= q.limit {
		q.dead = true
		return time.Time{}, false
	}
	depart = q.pipe.Send(now, 1)
	q.departures[q.tail] = depart
	q.tail = (q.tail + 1) % len(q.departures)
	q.inFlight++
	return depart, true
}

// expire drops accounting for messages already drained by now.
func (q *ConnQueue) expire(now time.Time) {
	for q.inFlight > 0 && !q.departures[q.head].After(now) {
		q.head = (q.head + 1) % len(q.departures)
		q.inFlight--
	}
}

// Dead reports whether the connection was killed by overflow.
func (q *ConnQueue) Dead() bool { return q.dead }

// Depth returns the queued message count at now.
func (q *ConnQueue) Depth(now time.Time) int {
	q.expire(now)
	return q.inFlight
}
