package broker

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/resp"
)

// startTCP starts a broker behind a RESP listener and returns its address
// and a cleanup function.
func startTCP(t *testing.T) (addr string, b *Broker) {
	t.Helper()
	b = New(Options{Name: "tcp-test"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ln, b) //nolint:errcheck // returns on listener close
	}()
	t.Cleanup(func() {
		b.Close()
		ln.Close()
		<-done
	})
	return ln.Addr().String(), b
}

// respClient is a minimal test client.
type respClient struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
}

func dialRESP(t *testing.T, addr string) *respClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &respClient{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}
}

func (c *respClient) cmd(t *testing.T, args ...string) resp.Value {
	t.Helper()
	bs := make([][]byte, len(args))
	for i, a := range args {
		bs[i] = []byte(a)
	}
	if err := c.w.WriteCommand(bs...); err != nil {
		t.Fatal(err)
	}
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return c.read(t)
}

func (c *respClient) read(t *testing.T) resp.Value {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	v, err := c.r.ReadValue()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return v
}

func TestRESPPingEcho(t *testing.T) {
	addr, _ := startTCP(t)
	c := dialRESP(t, addr)
	if v := c.cmd(t, "PING"); v.Kind != resp.KindSimpleString || string(v.Str) != "PONG" {
		t.Fatalf("PING => %+v", v)
	}
	if v := c.cmd(t, "ECHO", "hello"); v.Kind != resp.KindBulkString || string(v.Str) != "hello" {
		t.Fatalf("ECHO => %+v", v)
	}
	// Case-insensitive commands.
	if v := c.cmd(t, "ping"); string(v.Str) != "PONG" {
		t.Fatalf("ping => %+v", v)
	}
}

func TestRESPSubscribePublishFlow(t *testing.T) {
	addr, _ := startTCP(t)
	sub := dialRESP(t, addr)
	pub := dialRESP(t, addr)

	ack := sub.cmd(t, "SUBSCRIBE", "news")
	if ack.Kind != resp.KindArray || len(ack.Array) != 3 ||
		string(ack.Array[0].Str) != "subscribe" ||
		string(ack.Array[1].Str) != "news" ||
		ack.Array[2].Int != 1 {
		t.Fatalf("subscribe ack %+v", ack)
	}

	if v := pub.cmd(t, "PUBLISH", "news", "breaking"); v.Kind != resp.KindInteger || v.Int != 1 {
		t.Fatalf("PUBLISH => %+v", v)
	}

	msg := sub.read(t)
	if msg.Kind != resp.KindArray || len(msg.Array) != 3 ||
		string(msg.Array[0].Str) != "message" ||
		string(msg.Array[1].Str) != "news" ||
		string(msg.Array[2].Str) != "breaking" {
		t.Fatalf("message frame %+v", msg)
	}

	// Unsubscribe and verify no further delivery.
	unack := sub.cmd(t, "UNSUBSCRIBE", "news")
	if string(unack.Array[0].Str) != "unsubscribe" || unack.Array[2].Int != 0 {
		t.Fatalf("unsubscribe ack %+v", unack)
	}
	if v := pub.cmd(t, "PUBLISH", "news", "later"); v.Int != 0 {
		t.Fatalf("PUBLISH after unsubscribe reached %d", v.Int)
	}
}

func TestRESPMultiChannelSubscribe(t *testing.T) {
	addr, _ := startTCP(t)
	sub := dialRESP(t, addr)
	bs := [][]byte{[]byte("SUBSCRIBE"), []byte("a"), []byte("b"), []byte("c")}
	if err := sub.w.WriteCommand(bs...); err != nil {
		t.Fatal(err)
	}
	if err := sub.w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		ack := sub.read(t)
		if ack.Array[2].Int != int64(i) {
			t.Fatalf("ack %d count=%d", i, ack.Array[2].Int)
		}
	}
}

func TestRESPErrors(t *testing.T) {
	addr, _ := startTCP(t)
	c := dialRESP(t, addr)
	// REGION is what a client older than the command's removal still sends;
	// an empty name and one running past a command's end match nothing.
	for _, unknown := range [][]string{{"NOPE"}, {"REGION", "eu-west"}, {""}, {"punsubscribeX"}} {
		if v := c.cmd(t, unknown...); v.Kind != resp.KindError || !strings.Contains(string(v.Str), "unknown command") {
			t.Fatalf("%v => %+v", unknown, v)
		}
	}
	if v := c.cmd(t, "PUBLISH", "onlychannel"); v.Kind != resp.KindError {
		t.Fatalf("bad publish => %+v", v)
	}
	if v := c.cmd(t, "SUBSCRIBE"); v.Kind != resp.KindError {
		t.Fatalf("bare subscribe => %+v", v)
	}
	if v := c.cmd(t, "ECHO"); v.Kind != resp.KindError {
		t.Fatalf("bare echo => %+v", v)
	}
	// Connection still usable after errors; names match in any case.
	if v := c.cmd(t, "pInG"); string(v.Str) != "PONG" {
		t.Fatalf("PING after errors => %+v", v)
	}
	if ack := c.cmd(t, "SUBSCRIBE", "news"); ack.Kind != resp.KindArray || string(ack.Array[0].Str) != "subscribe" {
		t.Fatalf("SUBSCRIBE after errors => %+v", ack)
	}
}

func TestRESPInfoAndQuit(t *testing.T) {
	addr, _ := startTCP(t)
	c := dialRESP(t, addr)
	v := c.cmd(t, "INFO")
	if v.Kind != resp.KindBulkString || !strings.Contains(string(v.Str), "name:tcp-test") {
		t.Fatalf("INFO => %+v", v)
	}
	if v := c.cmd(t, "QUIT"); string(v.Str) != "OK" {
		t.Fatalf("QUIT => %+v", v)
	}
	// Server closes the connection after QUIT.
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := c.r.ReadValue(); err == nil {
		t.Fatal("connection alive after QUIT")
	}
}

func TestRESPDisconnectCleansSubscriptions(t *testing.T) {
	addr, b := startTCP(t)
	sub := dialRESP(t, addr)
	sub.cmd(t, "SUBSCRIBE", "temp")
	if got := b.Subscribers("temp"); got != 1 {
		t.Fatalf("Subscribers=%d", got)
	}
	sub.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for b.Subscribers("temp") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not cleaned after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRESPBinaryPayload(t *testing.T) {
	addr, _ := startTCP(t)
	sub := dialRESP(t, addr)
	pub := dialRESP(t, addr)
	sub.cmd(t, "SUBSCRIBE", "bin")
	payload := string([]byte{0, 1, 2, 255, '\r', '\n', 0})
	pub.cmd(t, "PUBLISH", "bin", payload)
	msg := sub.read(t)
	if string(msg.Array[2].Str) != payload {
		t.Fatalf("binary payload mangled: %q", msg.Array[2].Str)
	}
}
