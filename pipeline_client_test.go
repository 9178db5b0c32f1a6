package dynamoth_test

import (
	"net"
	"strings"
	"testing"
	"time"

	dynamoth "github.com/dynamoth/dynamoth"
	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/obs"
	"github.com/dynamoth/dynamoth/internal/plan"
)

// startRawTCPBrokers runs n bare brokers behind real TCP listeners (no
// dispatcher layer) and returns their ID→address table plus handles for
// injecting traffic server-side.
func startRawTCPBrokers(t *testing.T, ids ...string) (map[string]string, map[string]*broker.Broker) {
	t.Helper()
	addrs := make(map[string]string, len(ids))
	brokers := make(map[string]*broker.Broker, len(ids))
	for _, id := range ids {
		b := broker.New(broker.Options{Name: id})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			broker.Serve(ln, b) //nolint:errcheck // ends on close
		}()
		t.Cleanup(func() {
			b.Close()
			ln.Close()
			<-served
		})
		addrs[id] = ln.Addr().String()
		brokers[id] = b
	}
	return addrs, brokers
}

// TestClientPipelineSwitchOverlapDedup reproduces the paper's exactly-once
// guarantee (§IV-3) on the pipelined TCP transport: during a switch window
// the client is subscribed on both the old and the new server, the same
// publication reaches it twice, and deduplication must deliver exactly one
// copy to the application.
func TestClientPipelineSwitchOverlapDedup(t *testing.T) {
	addrs, brokers := startRawTCPBrokers(t, "A", "B")

	c, err := dynamoth.Connect(dynamoth.Config{Addrs: addrs, NodeID: 701})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msgs, err := c.Subscribe("game")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the initial subscription to land on the channel's hash home.
	home := plan.New("A", "B").Home("game")
	waitSubscribers(t, brokers[home], "game", 1)

	// A switch notification replicates the channel across both servers
	// (all-subscribers): the client must subscribe on A and B, entering the
	// overlap window the dedup layer exists for.
	sw := &message.Envelope{
		Type:        message.TypeSwitch,
		ID:          message.ID{Node: 9, Seq: 1},
		Channel:     "game",
		Strategy:    uint8(plan.StrategyAllSubscribers),
		Servers:     []string{"A", "B"},
		PlanVersion: 2,
	}
	brokers[home].Publish("game", sw.Marshal())
	waitSubscribers(t, brokers["A"], "game", 1)
	waitSubscribers(t, brokers["B"], "game", 1)

	// The same publication (identical message ID) arrives via both servers —
	// what happens mid-switch when old and new servers both carry traffic.
	env := &message.Envelope{
		Type:    message.TypeData,
		ID:      message.ID{Node: 42, Seq: 7},
		Channel: "game",
		Payload: []byte("dup-payload"),
	}
	data := env.Marshal()
	brokers["A"].Publish("game", data)
	brokers["B"].Publish("game", data)

	got := 0
	timeout := time.After(2 * time.Second)
	for got == 0 {
		select {
		case m := <-msgs:
			if string(m.Payload) == "dup-payload" {
				got++
			}
		case <-timeout:
			t.Fatal("publication never delivered")
		}
	}
	// The duplicate must be suppressed, not merely late.
	quiet := time.After(300 * time.Millisecond)
	for {
		select {
		case m := <-msgs:
			if string(m.Payload) == "dup-payload" {
				t.Fatal("duplicate delivered during switch overlap")
			}
		case <-quiet:
			if d := c.Stats().Duplicates; d != 1 {
				t.Fatalf("Duplicates=%d, want 1", d)
			}
			// The duplicate is accounted, not just dropped: the exported
			// dynamoth_client_duplicates_total family carries the counter.
			reg := obs.NewRegistry()
			c.RegisterMetrics(reg)
			if text := reg.String(); !strings.Contains(text, "dynamoth_client_duplicates_total 1") {
				t.Fatalf("exposition missing duplicates counter:\n%s", text)
			}
			return
		}
	}
}

func waitSubscribers(t *testing.T, b *broker.Broker, channel string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for b.Subscribers(channel) < want {
		if time.Now().After(deadline) {
			t.Fatalf("broker %v never saw %d subscribers on %s", b, want, channel)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
