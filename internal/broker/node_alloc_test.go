package broker_test

import (
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/plan"
	"github.com/dynamoth/dynamoth/internal/resp"
	"github.com/dynamoth/dynamoth/internal/server"
)

// TestNodePublishPathAllocs is the allocation gate of the publish path, on the
// assembled node rather than a bare broker: one complete RESP PUBLISH fed to a
// connection of a default-Options server.Node — dispatcher, LLA, top-K and
// latency observers, replay ring and stage stamping all on, a TCP-shaped
// subscriber on the channel — must allocate nothing between the bytes
// arriving and the delivery sitting in the subscriber's write buffer.
func TestNodePublishPathAllocs(t *testing.T) {
	n, err := server.New(server.Options{ID: "pub1", NodeNum: 1, Initial: plan.New("pub1")})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cs := broker.NewConnServer(n.Broker, broker.ServeOptions{})
	pub, err := broker.NewTestConn(cs, "pub")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := broker.NewTestConn(cs, "sub")
	if err != nil {
		t.Fatal(err)
	}
	if done, err := sub.Feed(resp.AppendCommandStrings(nil, "SUBSCRIBE", "room")); done || err != nil {
		t.Fatalf("SUBSCRIBE: done %v, err %v", done, err)
	}
	sub.Drain()

	env := &message.Envelope{
		Type:    message.TypeData,
		ID:      message.ID{Node: 2, Seq: 1},
		Channel: "room",
		Payload: make([]byte, 64),
		Stamp:   time.Now().UnixNano(),
	}
	wire := resp.AppendCommandStrings(nil, "PUBLISH", "room", string(env.Marshal()))
	rbuf := make([]byte, len(wire))
	delivered := 0
	publish := func() {
		// A fresh read each time: the broker stamps the frame where it lies.
		copy(rbuf, wire)
		if done, err := pub.Feed(rbuf); done || err != nil {
			t.Fatalf("PUBLISH: done %v, err %v", done, err)
		}
		pub.Drain()
		delivered += sub.Drain()
	}
	// Past the ring's first lap and the buffers' growth.
	for i := 0; i < 2*server.DefaultReplayDepth; i++ {
		publish()
	}
	if delivered == 0 {
		t.Fatal("nothing reached the subscriber")
	}
	if allocs := testing.AllocsPerRun(1000, publish); allocs != 0 {
		t.Fatalf("a RESP PUBLISH on the assembled node allocates %v times, want 0", allocs)
	}
	if got := pub.ParserBuffered(); got != 0 {
		t.Fatalf("parser holds %d bytes after whole frames", got)
	}
	if st := n.Broker.Stats(); st.ReplayRetained == 0 || st.ReplayBytes == 0 {
		t.Fatalf("replay ring not exercised: %+v", st)
	}
}
