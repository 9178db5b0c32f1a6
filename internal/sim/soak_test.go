package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/message"
)

// TestSoakRandomizedChurn fuzzes the whole system: random client churn,
// random subscribe/unsubscribe/publish mixes, and random load levels under
// the live Dynamoth balancer. Invariants checked continuously:
//
//   - the simulation never wedges (events keep flowing),
//   - every subscribed client keeps receiving its own publications
//     (self-delivery is the paper's liveness probe),
//   - the balancer never produces a plan naming a dead server,
//   - client local plans never name strategies that don't exist.
func TestSoakRandomizedChurn(t *testing.T) {
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			soakOnce(t, seed)
		})
	}
}

func soakOnce(t *testing.T, seed int64) {
	s := New(Config{
		Seed:           seed,
		Mode:           ModeDynamoth,
		MaxOutgoingBps: 80_000,
		BootDelay:      5 * time.Second,
		ReleaseGrace:   5 * time.Second,
		Balancer:       fastBalancer(),
	})
	rng := rand.New(rand.NewSource(seed * 97))

	type member struct {
		c        *Client
		channel  string
		received int
	}
	var members []*member
	nextID := uint32(100)

	join := func() {
		nextID++
		m := &member{channel: fmt.Sprintf("room-%d", rng.Intn(8))}
		c := s.AddClient(nextID)
		c.OnData = func(string, *message.Envelope, time.Time) { m.received++ }
		c.Subscribe(m.channel)
		m.c = c
		members = append(members, m)
	}
	leave := func() {
		if len(members) == 0 {
			return
		}
		i := rng.Intn(len(members))
		s.RemoveClient(members[i].c.ID())
		members = append(members[:i], members[i+1:]...)
	}
	hop := func() {
		if len(members) == 0 {
			return
		}
		m := members[rng.Intn(len(members))]
		next := fmt.Sprintf("room-%d", rng.Intn(8))
		if next == m.channel {
			return
		}
		m.c.Subscribe(next)
		m.c.Unsubscribe(m.channel)
		m.channel = next
	}

	for i := 0; i < 15; i++ {
		join()
	}
	// Publication pump: every member publishes on its room at a random-ish
	// phase; rate varies over time to exercise scale-up and scale-down.
	intensity := 1.0
	s.Engine().Every(200*time.Millisecond, func() {
		for _, m := range members {
			if rng.Float64() < intensity {
				m.c.PublishTimed(m.channel, 150)
			}
		}
	})

	for phase := 0; phase < 12; phase++ {
		// Random churn mix each phase.
		for op := 0; op < 5; op++ {
			switch rng.Intn(3) {
			case 0:
				join()
			case 1:
				leave()
			default:
				hop()
			}
		}
		intensity = 0.2 + rng.Float64()*0.8
		before := make(map[uint32]int, len(members))
		for _, m := range members {
			before[m.c.ID()] = m.received
		}
		s.RunFor(20 * time.Second)

		// Liveness: every surviving member that publishes keeps receiving
		// its own updates.
		for _, m := range members {
			if m.received <= before[m.c.ID()] {
				subs := ""
				for _, id := range s.serverIDs {
					if _, ok := s.servers[id].subs[m.channel][m.c.ID()]; ok {
						subs += " " + id
					}
				}
				held, _ := m.c.routes.Servers(m.channel)
				t.Fatalf("seed %d phase %d: client %d on %q stopped receiving (servers=%d, plan v%d, clientSubs=%v, serverSide=%s)",
					seed, phase, m.c.ID(), m.channel, s.ActiveServers(), s.PlanVersion(), held, subs)
			}
		}
		// Plan sanity: every explicit entry names only live servers.
		p := s.CurrentPlan()
		for ch, e := range p.Channels {
			for _, sv := range e.Servers {
				if srv := s.servers[sv]; srv == nil || !srv.alive {
					t.Fatalf("seed %d phase %d: plan maps %q to dead server %q", seed, phase, ch, sv)
				}
			}
		}
		for _, sv := range p.Servers {
			if srv := s.servers[sv]; srv == nil || !srv.alive {
				t.Fatalf("seed %d phase %d: plan lists dead server %q", seed, phase, sv)
			}
		}
	}
}
