package workload

import (
	"fmt"
	"time"

	"github.com/dynamoth/dynamoth/internal/loadgen"
)

// Scenario describes one entry of the benchmark scenario suite: a named
// traffic shape the open-loop harness (cmd/experiments -run scenarios) drives
// against a real dynamoth-node. The four stock shapes cover the quadrants the
// paper's workloads span — fan-in, fan-out, churn-heavy, and a blend — so a
// regression in any one delivery path fails its own scenario instead of
// averaging away.
type Scenario struct {
	Name        string
	Description string

	// Publishers each run an independent open-loop schedule of
	// RatePerPublisher msgs/s with the given arrival process.
	Publishers       int
	RatePerPublisher float64
	Arrival          loadgen.Arrival

	// Channels is how many distinct channels publishers spread over
	// (publisher p publishes to channel p mod Channels).
	Channels int

	// Subscribers each subscribe to SubsPerSubscriber of the channels
	// (subscriber s takes channels s, s+1, ... mod Channels).
	Subscribers       int
	SubsPerSubscriber int

	// PatternSubscribers, when non-zero, adds raw RESP subscribers using
	// PSUBSCRIBE on Pattern — the chat shape exercises the broker's glob
	// delivery path, which the high-level client does not wrap.
	PatternSubscribers int
	Pattern            string

	// ChurnPerSec, when non-zero, runs a side loop of subscribe/unsubscribe
	// pairs per second against rotating channels for presence-style load.
	ChurnPerSec float64

	Duration     time.Duration
	PayloadBytes int

	// Components, when non-empty, makes this a blend: each component runs
	// concurrently with its own recorder chained into a shared one. The
	// outer fields other than Name/Description/Duration are ignored.
	Components []Scenario
}

// ChannelName returns the i-th channel of the scenario's namespace.
func (s Scenario) ChannelName(i int) string {
	return fmt.Sprintf("scn.%s.%d", s.Name, i%s.Channels)
}

// OfferedPerSec is the scenario's aggregate publish rate.
func (s Scenario) OfferedPerSec() float64 {
	if len(s.Components) > 0 {
		var sum float64
		for _, c := range s.Components {
			sum += c.OfferedPerSec()
		}
		return sum
	}
	return float64(s.Publishers) * s.RatePerPublisher
}

// Scale shrinks (or grows) the scenario's load by factor f, keeping the
// shape: counts scale but never drop below the minimum that still exercises
// the shape (one publisher, one subscriber, one channel). CI runs the suite
// at 0.1 to keep wall time down; the numbers it asserts on are structural
// (drops, stamp errors, dominance), not absolute latency.
func (s Scenario) Scale(f float64) Scenario {
	if f == 1 || f <= 0 {
		return s
	}
	n := func(v int) int {
		if v == 0 {
			return 0
		}
		if scaled := int(float64(v) * f); scaled > 1 {
			return scaled
		}
		return 1
	}
	s.Publishers = n(s.Publishers)
	s.Channels = n(s.Channels)
	s.Subscribers = n(s.Subscribers)
	s.PatternSubscribers = n(s.PatternSubscribers)
	if s.SubsPerSubscriber > s.Channels {
		s.SubsPerSubscriber = s.Channels
	}
	if s.ChurnPerSec > 0 {
		s.ChurnPerSec = s.ChurnPerSec * f
		if s.ChurnPerSec < 1 {
			s.ChurnPerSec = 1
		}
	}
	if d := time.Duration(float64(s.Duration) * f); d >= 2*time.Second {
		s.Duration = d
	} else if s.Duration > 2*time.Second {
		s.Duration = 2 * time.Second
	}
	for i := range s.Components {
		s.Components[i] = s.Components[i].Scale(f)
	}
	return s
}

// Validate rejects shapes the harness cannot run.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario has no name")
	}
	if len(s.Components) > 0 {
		for _, c := range s.Components {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
		}
		return nil
	}
	if s.Publishers <= 0 || s.RatePerPublisher <= 0 || s.Channels <= 0 || s.Duration <= 0 {
		return fmt.Errorf("%s: publishers/rate/channels/duration must be positive", s.Name)
	}
	if s.Subscribers > 0 && (s.SubsPerSubscriber <= 0 || s.SubsPerSubscriber > s.Channels) {
		return fmt.Errorf("%s: subsPerSubscriber %d out of range 1..%d", s.Name, s.SubsPerSubscriber, s.Channels)
	}
	if s.PatternSubscribers > 0 && s.Pattern == "" {
		return fmt.Errorf("%s: pattern subscribers need a pattern", s.Name)
	}
	return nil
}

// Scenarios returns the stock suite at full scale.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:        "iot_fanin",
			Description: "Many paced sensors funnel into few aggregator subscriptions (fan-in; periodic arrivals).",
			Publishers:  200, RatePerPublisher: 5, Arrival: loadgen.ArrivalPeriodic,
			Channels: 20, Subscribers: 4, SubsPerSubscriber: 20,
			Duration: 20 * time.Second, PayloadBytes: 64,
		},
		{
			Name:        "market_fanout",
			Description: "Few hot feed channels replicated to many subscribers (fan-out; the per-delivery cost path).",
			Publishers:  4, RatePerPublisher: 50, Arrival: loadgen.ArrivalPeriodic,
			Channels: 4, Subscribers: 150, SubsPerSubscriber: 2,
			Duration: 20 * time.Second, PayloadBytes: 200,
		},
		{
			Name:        "chat_churn",
			Description: "Bursty rooms with presence churn and glob pattern subscriptions (PSUBSCRIBE delivery path).",
			Publishers:  50, RatePerPublisher: 4, Arrival: loadgen.ArrivalPoisson,
			Channels: 50, Subscribers: 30, SubsPerSubscriber: 3,
			PatternSubscribers: 4, Pattern: "scn.chat_churn.*",
			ChurnPerSec: 50,
			Duration:    20 * time.Second, PayloadBytes: 120,
		},
		{
			Name:        "mixed",
			Description: "Multi-tenant blend of the three shapes on one broker, with per-component and blended tails.",
			Duration:    20 * time.Second,
			Components: []Scenario{
				{
					Name: "mixed_iot", Publishers: 80, RatePerPublisher: 5, Arrival: loadgen.ArrivalPeriodic,
					Channels: 8, Subscribers: 2, SubsPerSubscriber: 8,
					Duration: 20 * time.Second, PayloadBytes: 64,
				},
				{
					Name: "mixed_market", Publishers: 2, RatePerPublisher: 50, Arrival: loadgen.ArrivalPeriodic,
					Channels: 2, Subscribers: 60, SubsPerSubscriber: 1,
					Duration: 20 * time.Second, PayloadBytes: 200,
				},
				{
					Name: "mixed_chat", Publishers: 20, RatePerPublisher: 4, Arrival: loadgen.ArrivalPoisson,
					Channels: 20, Subscribers: 12, SubsPerSubscriber: 2,
					ChurnPerSec: 20,
					Duration:    20 * time.Second, PayloadBytes: 120,
				},
			},
		},
	}
}
