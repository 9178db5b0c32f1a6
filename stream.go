package dynamoth

import (
	"sync"
	"sync/atomic"
)

// streamDepth is the capacity of a subscription's delivery channel; the
// rest of what Config.SubscribeBuffer admits waits in a backlog that exists
// only while it does. 32 keeps a subscription at ≈ 3 KiB of live heap at
// the default buffer of 256; a deeper channel costs 64 B a slot and does not
// keep the pump idle: at 64 it still starts during a benchmark cruise,
// when a reader stalls (DESIGN §10).
const streamDepth = 32

// stream is a subscription's delivery stream: a short channel, and behind
// it a backlog holding the rest of what SubscribeBuffer admits. A pump
// goroutine, alive only while the backlog is non-empty, moves the backlog
// into the channel in order. Closing the stream stops the pump, moves into
// the channel whatever still fits and discards the rest as dropped.
//
// Every send on out happens under mu, but one: the pump's blocking send of
// the backlog's head while out is full. The head stays in the backlog until
// the pump holds mu again, so len(out)+len(backlog) counts the waiting
// messages exactly, except while inflight, when out may already hold the
// head as well. A delivery for which that difference decides (the count
// reads exactly limit) wakes the pump and waits for it to settle.
type stream struct {
	mu      sync.Mutex
	settled sync.Cond // on mu: the pump left its send, or exited
	out     chan Message
	limit   int // Config.SubscribeBuffer: the most messages that may wait
	backlog []Message
	// wake interrupts the pump's blocking send (capacity 1); it is made
	// when the first pump starts.
	wake     chan struct{}
	waiters  int // deliveries waiting for the pump to settle
	pumping  bool
	inflight bool // the pump is in, or just out of, its blocking send
	closed   bool
}

func (s *stream) init(limit int) {
	s.settled.L = &s.mu
	s.out = make(chan Message, min(limit, streamDepth))
	s.limit = limit
}

// deliver admits msg: into out at once when nothing waits ahead of it,
// else into the backlog, unless limit messages already wait, in which case
// it is dropped. received counts a message when it enters out.
func (s *stream) deliver(msg Message, received, dropped *atomic.Uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if len(s.backlog) == 0 && len(s.out) < cap(s.out) {
			// No pump runs, so every sender holds mu: the room stays.
			// Counted first, so a reader never sees the message uncounted.
			received.Add(1)
			s.out <- msg
			return
		}
		waiting := len(s.out) + len(s.backlog)
		if waiting == s.limit && s.inflight {
			s.waiters++
			s.kick()
			s.settled.Wait()
			s.waiters--
			if s.waiters == 0 {
				s.settled.Broadcast()
			}
			continue
		}
		if waiting >= s.limit {
			dropped.Add(1)
			return
		}
		s.backlog = append(s.backlog, msg)
		if !s.pumping {
			s.pumping = true
			if s.wake == nil {
				s.wake = make(chan struct{}, 1)
			}
			go s.pump(received)
		}
		return
	}
}

// kick wakes the pump from its blocking send; a kick nobody takes waits
// in wake and costs the pump one extra turn.
func (s *stream) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// pump moves the backlog into out until the backlog is empty or the stream
// closes. It fills out under mu as far as it has room, then waits outside mu
// in a blocking send of the head.
func (s *stream) pump(received *atomic.Uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.waiters > 0 {
			s.settled.Wait()
		}
		if s.closed {
			break // close moves and discards the backlog
		}
		s.fill(received)
		if len(s.backlog) == 0 {
			s.backlog = nil
			break
		}
		head := s.backlog[0]
		s.inflight = true
		s.mu.Unlock()
		sent := false
		select {
		case s.out <- head:
			sent = true
		case <-s.wake:
		}
		s.mu.Lock()
		s.inflight = false
		if sent {
			received.Add(1)
			s.backlog[0] = Message{}
			s.backlog = s.backlog[1:]
		}
		s.settled.Broadcast()
	}
	s.pumping = false
	s.settled.Broadcast()
}

// fill moves backlog entries into out while out has room. It runs under mu
// with no blocking send outstanding, so the room it sees stays.
func (s *stream) fill(received *atomic.Uint64) {
	n := min(len(s.backlog), cap(s.out)-len(s.out))
	received.Add(uint64(n))
	for i := range n {
		s.out <- s.backlog[i]
		s.backlog[i] = Message{}
	}
	s.backlog = s.backlog[n:]
}

// close closes out exactly once, after stopping the pump: what still fits
// stays readable and the rest of the backlog is counted in dropped.
func (s *stream) close(received, dropped *atomic.Uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for s.pumping {
		s.kick()
		s.settled.Wait()
	}
	s.fill(received)
	dropped.Add(uint64(len(s.backlog)))
	s.backlog = nil
	close(s.out)
}
