// Package clock abstracts time so that identical Dynamoth code can run
// against the wall clock (live clusters, examples), against an accelerated
// clock (fast integration tests), or against a manually advanced clock
// (deterministic unit tests and the discrete-event simulator).
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source used throughout Dynamoth.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// Sleep blocks for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel delivering the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
	// NewTimer returns a timer firing once after d.
	NewTimer(d time.Duration) Timer
}

// Ticker mirrors time.Ticker behind an interface.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Timer mirrors time.Timer behind an interface.
type Timer interface {
	C() <-chan time.Time
	// Stop prevents the timer from firing; it reports whether it was
	// still pending.
	Stop() bool
	// Reset re-arms the timer for d from now.
	Reset(d time.Duration)
}

// ---------------------------------------------------------------------------
// Real clock

// Real is the wall clock.
type Real struct{}

var _ Clock = Real{}

// NewReal returns the wall clock.
func NewReal() Real { return Real{} }

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return &realTimer{time.NewTimer(d)} }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }
func (t realTicker) Stop()               { t.t.Stop() }

type realTimer struct{ t *time.Timer }

func (t *realTimer) C() <-chan time.Time   { return t.t.C }
func (t *realTimer) Stop() bool            { return t.t.Stop() }
func (t *realTimer) Reset(d time.Duration) { t.t.Reset(d) }

// ---------------------------------------------------------------------------
// Scaled clock

// Scaled runs virtual time at a fixed multiple of real time: with Factor 10,
// one real second is ten virtual seconds. Experiments defined in virtual
// seconds then run Factor× faster on the wall clock while all rates and
// timeouts keep their virtual meaning.
type Scaled struct {
	origin     time.Time // real time at construction
	virtOrigin time.Time // virtual time at construction
	factor     float64
}

var _ Clock = (*Scaled)(nil)

// NewScaled creates a scaled clock starting at virtual time start, running
// factor× faster than real time. factor must be positive.
func NewScaled(start time.Time, factor float64) *Scaled {
	if factor <= 0 {
		panic("clock: scale factor must be positive")
	}
	return &Scaled{origin: time.Now(), virtOrigin: start, factor: factor}
}

// Now implements Clock.
func (s *Scaled) Now() time.Time {
	real := time.Since(s.origin)
	return s.virtOrigin.Add(time.Duration(float64(real) * s.factor))
}

// Since implements Clock.
func (s *Scaled) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Sleep implements Clock.
func (s *Scaled) Sleep(d time.Duration) { time.Sleep(s.real(d)) }

// After implements Clock.
func (s *Scaled) After(d time.Duration) <-chan time.Time { return time.After(s.real(d)) }

// NewTicker implements Clock.
func (s *Scaled) NewTicker(d time.Duration) Ticker {
	return realTicker{time.NewTicker(s.real(d))}
}

// NewTimer implements Clock.
func (s *Scaled) NewTimer(d time.Duration) Timer {
	return &scaledTimer{s: s, t: time.NewTimer(s.real(d))}
}

func (s *Scaled) real(d time.Duration) time.Duration {
	r := time.Duration(float64(d) / s.factor)
	if d > 0 && r <= 0 {
		r = 1 // never a zero/negative wait for a positive virtual duration
	}
	return r
}

type scaledTimer struct {
	s *Scaled
	t *time.Timer
}

func (t *scaledTimer) C() <-chan time.Time   { return t.t.C }
func (t *scaledTimer) Stop() bool            { return t.t.Stop() }
func (t *scaledTimer) Reset(d time.Duration) { t.t.Reset(t.s.real(d)) }

// ---------------------------------------------------------------------------
// Manual clock

// Manual is a virtual clock advanced explicitly by tests. Timers and tickers
// fire synchronously inside Advance, in timestamp order.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     uint64 // tiebreak so equal deadlines fire in creation order
}

var _ Clock = (*Manual)(nil)

// NewManual creates a manual clock set to start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration { return m.Now().Sub(t) }

// Sleep blocks until the clock is advanced past d. It must not be called
// from the goroutine that calls Advance.
func (m *Manual) Sleep(d time.Duration) { <-m.After(d) }

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	t := m.NewTimer(d)
	return t.C()
}

// NewTimer implements Clock.
func (m *Manual) NewTimer(d time.Duration) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &waiter{
		ch:       make(chan time.Time, 1),
		deadline: m.now.Add(d),
		clock:    m,
	}
	m.push(w)
	return &manualTimer{m: m, w: w}
}

// NewTicker implements Clock.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &waiter{
		ch:       make(chan time.Time, 1),
		deadline: m.now.Add(d),
		period:   d,
		clock:    m,
	}
	m.push(w)
	return &manualTicker{m: m, w: w}
}

// Advance moves the clock forward by d, firing every timer and ticker whose
// deadline falls within the window, in order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.now.Add(d)
	for {
		if len(m.waiters) == 0 || m.waiters[0].deadline.After(target) {
			break
		}
		w := heap.Pop(&m.waiters).(*waiter)
		if w.stopped {
			continue
		}
		m.now = w.deadline
		select {
		case w.ch <- w.deadline:
		default: // receiver not draining; drop like time.Ticker does
		}
		if w.period > 0 {
			w.deadline = w.deadline.Add(w.period)
			m.push(w)
		} else {
			w.fired = true
		}
	}
	m.now = target
	m.mu.Unlock()
}

// Set jumps the clock to t (which must not be in the past), firing
// everything on the way.
func (m *Manual) Set(t time.Time) {
	d := t.Sub(m.Now())
	if d < 0 {
		panic("clock: Set into the past")
	}
	m.Advance(d)
}

func (m *Manual) push(w *waiter) {
	w.seq = m.seq
	m.seq++
	heap.Push(&m.waiters, w)
}

type waiter struct {
	ch       chan time.Time
	deadline time.Time
	period   time.Duration // 0 for timers
	seq      uint64
	index    int
	stopped  bool
	fired    bool
	clock    *Manual
}

type manualTimer struct {
	m *Manual
	w *waiter
}

func (t *manualTimer) C() <-chan time.Time { return t.w.ch }

func (t *manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	pending := !t.w.fired && !t.w.stopped
	t.w.stopped = true
	return pending
}

func (t *manualTimer) Reset(d time.Duration) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	t.w.stopped = false
	t.w.fired = false
	t.w.deadline = t.m.now.Add(d)
	// Re-push; the stale heap entry (if any) is skipped via the stopped
	// flag semantics by replacing the waiter wholesale.
	w := &waiter{ch: t.w.ch, deadline: t.w.deadline, clock: t.m}
	old := t.w
	old.stopped = true
	t.w = w
	t.m.push(w)
}

type manualTicker struct {
	m *Manual
	w *waiter
}

func (t *manualTicker) C() <-chan time.Time { return t.w.ch }

func (t *manualTicker) Stop() {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	t.w.stopped = true
}

// waiterHeap orders waiters by (deadline, seq).
type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *waiterHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}
