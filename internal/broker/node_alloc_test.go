package broker_test

import (
	"math/rand/v2"
	"sort"
	"strconv"
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
// arriving and the delivery sitting in the subscriber's write buffer, whether
// the command is spelled in upper case or, as redis-cli and go-redis send it,
// in lower case.
func TestNodePublishPathAllocs(t *testing.T) {
	for _, verb := range []string{"PUBLISH", "publish"} {
		nodePublishAllocs(t, verb)
	}
}

func nodePublishAllocs(t *testing.T, verb string) {
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
	wire := resp.AppendCommandStrings(nil, verb, "room", string(env.Marshal()))
	rbuf := make([]byte, len(wire))
	delivered := 0
	publish := func() {
		// A fresh read each time: the broker stamps the frame where it lies.
		copy(rbuf, wire)
		if done, err := pub.Feed(rbuf); done || err != nil {
			t.Fatalf("%s: done %v, err %v", verb, done, err)
		}
		pub.Drain()
		delivered += sub.Drain()
	}
	// Past the ring's first lap and the buffers' growth.
	for i := 0; i < 2*server.DefaultReplayDepth; i++ {
		publish()
	}
	if delivered == 0 {
		t.Fatalf("%s: nothing reached the subscriber", verb)
	}
	if allocs := testing.AllocsPerRun(1000, publish); allocs != 0 {
		t.Fatalf("a RESP %s on the assembled node allocates %v times, want 0", verb, allocs)
	}
	if got := pub.ParserBuffered(); got != 0 {
		t.Fatalf("parser holds %d bytes after whole frames", got)
	}
	if st := n.Broker.Stats(); st.ReplayRetained == 0 || st.ReplayBytes == 0 {
		t.Fatalf("replay ring not exercised: %+v", st)
	}
}

// BenchmarkNodePublishZipf is the churn_zipf shape on the assembled node,
// socketless: RESP PUBLISHes of 120-byte data envelopes over 8192 channels
// drawn Zipf(1.0), the 256 hottest subscribed by one connection and two glob
// patterns by another, every observer, the replay rings and stage stamping
// on. One op is one PUBLISH fed, executed and its deliveries drained.
func BenchmarkNodePublishZipf(b *testing.B) {
	const (
		channels   = 8192
		subscribed = 256
		draws      = 1 << 16
	)
	n, err := server.New(server.Options{ID: "pub1", NodeNum: 1, Initial: plan.New("pub1")})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	cs := broker.NewConnServer(n.Broker, broker.ServeOptions{})
	conn := func(name string, cmd ...string) *broker.TestConn {
		c, err := broker.NewTestConn(cs, name)
		if err != nil {
			b.Fatal(err)
		}
		if len(cmd) > 0 {
			if done, err := c.Feed(resp.AppendCommandStrings(nil, cmd[0], cmd[1:]...)); done || err != nil {
				b.Fatalf("%s: done %v, err %v", cmd[0], done, err)
			}
			c.Drain()
		}
		return c
	}
	names := make([]string, channels)
	for i := range names {
		names[i] = "b.c." + strconv.Itoa(i)
	}
	pub := conn("pub")
	sub := conn("sub", append([]string{"SUBSCRIBE"}, names[:subscribed]...)...)
	pat := conn("pat", "PSUBSCRIBE", "b.c.1*", "b.c.*7")

	// One wire frame per channel, and a fixed Zipf(1.0) draw sequence.
	wires := make([][]byte, channels)
	for i, ch := range names {
		env := &message.Envelope{
			Type:    message.TypeData,
			ID:      message.ID{Node: 2, Seq: uint64(i + 1)},
			Channel: ch,
			Payload: make([]byte, 120),
			Stamp:   time.Now().UnixNano(),
		}
		wires[i] = resp.AppendCommandStrings(nil, "PUBLISH", ch, string(env.Marshal()))
	}
	cdf := make([]float64, channels)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewPCG(13, 21))
	seq := make([]int, draws)
	for i := range seq {
		seq[i] = sort.SearchFloat64s(cdf, rng.Float64()*sum)
	}
	rbuf := make([]byte, 0, 512)
	publish := func(i int) {
		rbuf = append(rbuf[:0], wires[seq[i&(draws-1)]]...)
		if done, err := pub.Feed(rbuf); done || err != nil {
			b.Fatalf("PUBLISH: done %v, err %v", done, err)
		}
		pub.Drain()
		sub.Drain()
		pat.Drain()
	}
	for i := 0; i < draws; i++ { // every channel's record, ring and buffers warm
		publish(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish(i)
	}
}
