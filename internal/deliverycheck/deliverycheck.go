// Package deliverycheck judges a recorded pub/sub history against the
// delivery contract of DESIGN §16. Tests record accepted publications,
// acknowledged subscriptions, deliveries and replay gap reports; the Ledger
// names the first breach, per subscriber and channel, of three predicates:
// every publication accepted after the subscription is delivered exactly
// once; nothing is delivered that was never published on the channel; and
// the publications left undelivered are exactly as many as the gaps
// reported. Per-publisher order is not checked: a resumed subscription may
// see a live frame before its replay batch. It takes plain strings and
// imports nothing of the module, so the root package's tests can use it.
package deliverycheck

import (
	"fmt"
	"sync"
	"time"
)

// Ledger records one history. Its methods are safe for concurrent use; keys
// must be unique per channel.
type Ledger struct {
	mu   sync.Mutex
	log  map[string][]string // channel → accepted keys, in the order recorded
	subs []*subscription     // in the order first seen
}

type subscription struct {
	sub, channel string
	from         int            // len(log[channel]) when Subscribed was recorded
	got          map[string]int // key → deliveries
	order        []string       // keys in first-delivery order
	missed       uint64         // sum of the reported gaps
}

// New returns an empty Ledger.
func New() *Ledger { return &Ledger{log: make(map[string][]string)} }

// Published records a publication the channel accepted: Publish returned nil.
func (l *Ledger) Published(channel, key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.log[channel] = append(l.log[channel], key)
}

// Subscribed records that sub's subscription to channel was acknowledged:
// publications recorded from now on are owed to it. Record it before any
// delivery on the subscription.
func (l *Ledger) Subscribed(sub, channel string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.get(sub, channel)
}

// Delivered records one delivery of key to sub on channel.
func (l *Ledger) Delivered(sub, channel, key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.get(sub, channel)
	if s.got[key]++; s.got[key] == 1 {
		s.order = append(s.order, key)
	}
}

// Gap records one replay gap report, as OnReplayGap passes it.
func (l *Ledger) Gap(sub, channel string, missed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.get(sub, channel).missed += missed
}

func (l *Ledger) get(sub, channel string) *subscription {
	for _, s := range l.subs {
		if s.sub == sub && s.channel == channel {
			return s
		}
	}
	s := &subscription{sub: sub, channel: channel, from: len(l.log[channel]), got: make(map[string]int)}
	l.subs = append(l.subs, s)
	return s
}

// Check returns the first violation in the history so far, naming the
// subscriber, the channel and the key, or nil.
func (l *Ledger) Check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.subs {
		at := fmt.Sprintf("subscriber %s, channel %s", s.sub, s.channel)
		log := l.log[s.channel]
		published := make(map[string]bool, len(log))
		for _, k := range log {
			published[k] = true
		}
		for _, k := range s.order {
			if n := s.got[k]; n > 1 {
				return fmt.Errorf("%s: key %q delivered %d times", at, k, n)
			}
			if !published[k] {
				return fmt.Errorf("%s: key %q delivered, never published", at, k)
			}
		}
		var lost []string
		for _, k := range log[s.from:] {
			if s.got[k] == 0 {
				lost = append(lost, k)
			}
		}
		owed := len(log) - s.from
		if uint64(len(lost)) > s.missed {
			return fmt.Errorf("%s: key %q lost: %d of %d owed undelivered, %d reported missed", at, lost[0], len(lost), owed, s.missed)
		}
		if uint64(len(lost)) < s.missed {
			return fmt.Errorf("%s: %d reported missed, %d of %d owed undelivered", at, s.missed, len(lost), owed)
		}
	}
	return nil
}

// Wait polls Check until it passes or timeout elapses, and returns its last
// verdict.
func (l *Ledger) Wait(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := l.Check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Drain records sub's acknowledged subscription to channel, then, in its
// own goroutine, every message read from msgs as delivered, until msgs
// closes.
func Drain[M any](l *Ledger, sub, channel string, msgs <-chan M, key func(M) string) {
	l.Subscribed(sub, channel)
	go func() {
		for m := range msgs {
			l.Delivered(sub, channel, key(m))
		}
	}()
}
