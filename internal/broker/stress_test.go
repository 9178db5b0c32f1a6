package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// swallowingSink accepts every delivery (message or pmessage) and counts it.
type swallowingSink struct{ n atomic.Int64 }

func (s *swallowingSink) Deliver(string, []byte) { s.n.Add(1) }
func (s *swallowingSink) Closed(error)           {}

// TestConcurrentStress exercises the sharded registry and the queueing
// writer under everything at once: parallel publishers across the channel
// space, session churn (connect/subscribe/close loops), and pattern
// (un)subscribe churn. It runs in the short suite so `make race` covers it;
// the assertions are on invariants (counter consistency, no deadlock, no
// leaked registry state), the real check is the race detector.
func TestConcurrentStress(t *testing.T) {
	b := New(Options{OutputBuffer: 1 << 14})
	defer b.Close()

	const (
		channels    = 32
		publishers  = 4
		pubsEach    = 2000
		churners    = 4
		churnsEach  = 100
		patternGoes = 2
		patternEach = 200
	)
	names := make([]string, channels)
	for i := range names {
		names[i] = fmt.Sprintf("ch-%d", i)
	}

	// A stable subscriber on every channel so publishes always fan out.
	stable := &swallowingSink{}
	ss, err := b.Connect("stable", stable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Subscribe(names...); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	payload := []byte("stress-payload")

	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < pubsEach; i++ {
				b.Publish(names[(p*7+i)%channels], payload)
			}
		}(p)
	}

	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < churnsEach; i++ {
				sink := &swallowingSink{}
				s, err := b.Connect(fmt.Sprintf("churn-%d-%d", c, i), sink)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Subscribe(names[(c+i)%channels], names[(c+2*i)%channels]); err != nil {
					s.Close()
					continue
				}
				if i%3 == 0 {
					s.Unsubscribe(names[(c+i)%channels]) //nolint:errcheck // may race with close
				}
				s.Close()
			}
		}(c)
	}

	for g := 0; g < patternGoes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sink := &swallowingSink{}
			s, err := b.Connect(fmt.Sprintf("pat-%d", g), sink)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			for i := 0; i < patternEach; i++ {
				if _, err := s.PSubscribe("ch-1*", "ch-2?"); err != nil {
					return
				}
				if _, err := s.PUnsubscribe(); err != nil {
					return
				}
			}
		}(g)
	}

	wg.Wait()

	st := b.Stats()
	if want := uint64(publishers * pubsEach); st.Published < want {
		t.Fatalf("Published=%d, want >= %d", st.Published, want)
	}
	// The stable subscriber's deliveries are queued, not necessarily
	// drained yet; but none may have been dropped for it unless it truly
	// overflowed (OutputBuffer is sized so it should not).
	if st.Dropped > 0 && stable.n.Load() == 0 {
		t.Fatalf("stable subscriber starved: stats=%+v", st)
	}

	// All churn sessions closed: their registry entries must be gone.
	for i, ch := range names {
		if got := b.Subscribers(ch); got != 1 {
			t.Fatalf("channel %d has %d subscribers after churn, want 1 (the stable one)", i, got)
		}
	}
	// All pattern subscriptions were unsubscribed or died with their
	// session: the fast-path counter must be back to zero, or Publish
	// would pay the glob scan forever.
	if got := b.patternSubs.Load(); got != 0 {
		t.Fatalf("patternSubs=%d after churn, want 0", got)
	}
	if got := len(b.patterns); got != 0 {
		t.Fatalf("%d stale pattern sets after churn", got)
	}
}
