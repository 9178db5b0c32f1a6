package netsim

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestLogNormalSampleBounds(t *testing.T) {
	m := NewKingLike()
	rng := rand.New(rand.NewSource(42))
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := m.Sample(rng)
		if d < m.Min || d > m.Max {
			t.Fatalf("sample %v outside [%v,%v]", d, m.Min, m.Max)
		}
		sum += d
	}
	mean := sum / n
	// Log-normal mean = median*exp(sigma^2/2) ≈ 35.4ms; allow slack for clipping.
	if mean < 28*time.Millisecond || mean > 45*time.Millisecond {
		t.Fatalf("mean one-way delay %v, want ~35ms", mean)
	}
}

func TestLogNormalDeterministicGivenSeed(t *testing.T) {
	m := NewKingLike()
	a := m.Sample(rand.New(rand.NewSource(7)))
	b := m.Sample(rand.New(rand.NewSource(7)))
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestFixedModel(t *testing.T) {
	if got := Fixed(3 * time.Millisecond).Sample(nil); got != 3*time.Millisecond {
		t.Fatalf("Fixed sample %v", got)
	}
}

func TestPathModelThreeCaseRule(t *testing.T) {
	pm := &PathModel{WAN: Fixed(10 * time.Millisecond), LAN: time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		from, to NodeClass
		want     time.Duration
	}{
		{Infra, Infra, time.Millisecond},
		{Infra, Client, 10 * time.Millisecond},
		{Client, Infra, 10 * time.Millisecond},
		{Client, Client, 20 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := pm.Delay(tt.from, tt.to, rng); got != tt.want {
			t.Fatalf("Delay(%d,%d)=%v want %v", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestNewPathModelDefaults(t *testing.T) {
	pm := NewPathModel()
	if pm.WAN == nil || pm.LAN <= 0 {
		t.Fatal("defaults not set")
	}
}

func TestPipeUnloadedPassThrough(t *testing.T) {
	p := NewPipe(1000) // 1000 units/s => 1ms per unit
	dep := p.Send(epoch, 1)
	if want := epoch.Add(time.Millisecond); !dep.Equal(want) {
		t.Fatalf("departure %v want %v", dep, want)
	}
	if p.QueueDelay(dep) != 0 {
		t.Fatal("pipe still busy after departure time")
	}
}

func TestPipeQueueingUnderLoad(t *testing.T) {
	p := NewPipe(1000)
	// Offer 10 units at once: departures serialize 1ms apart.
	var last time.Time
	for i := 1; i <= 10; i++ {
		last = p.Send(epoch, 1)
		if want := epoch.Add(time.Duration(i) * time.Millisecond); !last.Equal(want) {
			t.Fatalf("unit %d departs %v want %v", i, last, want)
		}
	}
	if got := p.QueueDelay(epoch); got != 10*time.Millisecond {
		t.Fatalf("QueueDelay=%v want 10ms", got)
	}
	if !p.Backlogged(epoch) {
		t.Fatal("pipe not backlogged")
	}
	if p.Backlogged(last) {
		t.Fatal("pipe backlogged after last departure")
	}
	if p.SentUnits() != 10 {
		t.Fatalf("SentUnits=%f", p.SentUnits())
	}
}

func TestPipeIdleGapResets(t *testing.T) {
	p := NewPipe(1000)
	p.Send(epoch, 1)
	// Much later, the pipe is idle again: no residual delay.
	later := epoch.Add(time.Second)
	dep := p.Send(later, 1)
	if want := later.Add(time.Millisecond); !dep.Equal(want) {
		t.Fatalf("departure %v want %v", dep, want)
	}
}

func TestPipeSetCapacity(t *testing.T) {
	p := NewPipe(1000)
	p.SetCapacity(2000)
	dep := p.Send(epoch, 1)
	if want := epoch.Add(500 * time.Microsecond); !dep.Equal(want) {
		t.Fatalf("departure %v want %v", dep, want)
	}
}

func TestPipePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipe(0) did not panic")
		}
	}()
	NewPipe(0)
}

func TestConnQueueDrainsAtRate(t *testing.T) {
	q := NewConnQueue(100, 1000) // 100 msg/s => 10ms per message
	d1, ok := q.Send(epoch)
	if !ok || !d1.Equal(epoch.Add(10*time.Millisecond)) {
		t.Fatalf("first send %v %t", d1, ok)
	}
	d2, ok := q.Send(epoch)
	if !ok || !d2.Equal(epoch.Add(20*time.Millisecond)) {
		t.Fatalf("second send %v %t", d2, ok)
	}
	if got := q.Depth(epoch); got != 2 {
		t.Fatalf("Depth=%d want 2", got)
	}
	if got := q.Depth(epoch.Add(15 * time.Millisecond)); got != 1 {
		t.Fatalf("Depth after first drain=%d want 1", got)
	}
}

func TestConnQueueOverflowKillsConnection(t *testing.T) {
	q := NewConnQueue(10, 5) // very slow drain, tiny buffer
	for i := 0; i < 5; i++ {
		if _, ok := q.Send(epoch); !ok {
			t.Fatalf("send %d rejected before limit", i)
		}
	}
	if q.Dead() {
		t.Fatal("connection dead before overflow")
	}
	if _, ok := q.Send(epoch); ok {
		t.Fatal("overflow send accepted")
	}
	if !q.Dead() {
		t.Fatal("connection not dead after overflow")
	}
	// Dead stays dead even after the backlog would have drained.
	if _, ok := q.Send(epoch.Add(time.Hour)); ok {
		t.Fatal("send on dead connection accepted")
	}
}

func TestConnQueueRecoversWhenDrainKeepsUp(t *testing.T) {
	q := NewConnQueue(1000, 10)
	now := epoch
	// Offer 1 msg per 2ms against 1ms drain: never accumulates.
	for i := 0; i < 1000; i++ {
		if _, ok := q.Send(now); !ok {
			t.Fatalf("send %d failed, queue depth %d", i, q.Depth(now))
		}
		now = now.Add(2 * time.Millisecond)
	}
	if q.Dead() {
		t.Fatal("healthy connection died")
	}
}

func TestDelayQueueOrderingWithManualClock(t *testing.T) {
	clk := clock.NewManual(epoch)
	q := NewDelayQueue(clk)
	defer q.Stop()

	var mu sync.Mutex
	var got []int
	record := func(i int) func() {
		return func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}
	}
	q.Schedule(epoch.Add(30*time.Millisecond), record(3))
	q.Schedule(epoch.Add(10*time.Millisecond), record(1))
	q.Schedule(epoch.Add(20*time.Millisecond), record(2))
	q.Schedule(epoch.Add(10*time.Millisecond), record(11)) // same instant: after 1

	waitLen := func(n int) {
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			l := len(got)
			mu.Unlock()
			if l >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d callbacks, have %d", n, l)
			}
			time.Sleep(time.Millisecond)
			clk.Advance(0) // let the worker observe time; no-op advance
		}
	}

	clk.Advance(15 * time.Millisecond)
	waitLen(2)
	mu.Lock()
	if got[0] != 1 || got[1] != 11 {
		t.Fatalf("order after 15ms: %v", got)
	}
	mu.Unlock()

	clk.Advance(20 * time.Millisecond)
	waitLen(4)
	mu.Lock()
	if got[2] != 2 || got[3] != 3 {
		t.Fatalf("final order: %v", got)
	}
	mu.Unlock()
}

func TestDelayQueuePastDeadlineRunsImmediately(t *testing.T) {
	q := NewDelayQueue(clock.NewReal())
	defer q.Stop()
	done := make(chan struct{})
	q.Schedule(time.Now().Add(-time.Second), func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("past-deadline callback never ran")
	}
}

func TestDelayQueueScheduleAfter(t *testing.T) {
	q := NewDelayQueue(clock.NewReal())
	defer q.Stop()
	done := make(chan struct{})
	q.ScheduleAfter(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ScheduleAfter callback never ran")
	}
}

func TestDelayQueueStopDiscardsAndIsIdempotent(t *testing.T) {
	q := NewDelayQueue(clock.NewReal())
	ran := make(chan struct{}, 1)
	q.Schedule(time.Now().Add(time.Hour), func() { ran <- struct{}{} })
	q.Stop()
	q.Stop() // idempotent
	q.Schedule(time.Now(), func() { ran <- struct{}{} })
	select {
	case <-ran:
		t.Fatal("callback ran after Stop")
	case <-time.After(50 * time.Millisecond):
	}
	if q.Len() != 1 {
		// The pre-Stop item stays pending (discarded, never run).
		t.Fatalf("Len=%d", q.Len())
	}
}

func TestDelayQueueCallbackCanReschedule(t *testing.T) {
	q := NewDelayQueue(clock.NewReal())
	defer q.Stop()
	done := make(chan struct{})
	q.ScheduleAfter(time.Millisecond, func() {
		q.ScheduleAfter(time.Millisecond, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("rescheduled callback never ran")
	}
}

func TestDelayQueueHighVolume(t *testing.T) {
	q := NewDelayQueue(clock.NewReal())
	defer q.Stop()
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		q.ScheduleAfter(time.Duration(i%10)*time.Millisecond, wg.Done)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only delivered %d callbacks", n-q.Len())
	}
}
