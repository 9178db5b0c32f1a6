package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"github.com/dynamoth/dynamoth/internal/message"
	"github.com/dynamoth/dynamoth/internal/resp"
)

// ackStream turns prog into a subscriber-socket byte stream: each op byte
// appends one frame — a message push, a subscribe or unsubscribe ack, a
// csubscribe ack (well formed, with a negative count, or short), a -ERR
// reply — or a run of raw bytes taken from prog itself.
func ackStream(prog []byte) []byte {
	var w []byte
	for i := 0; i < len(prog); i++ {
		op := prog[i]
		arg := func() byte {
			if i+1 < len(prog) {
				i++
				return prog[i]
			}
			return 0
		}
		switch op % 8 {
		case 0:
			w = resp.AppendMessage(w, fmt.Sprintf("c%d", arg()%4), []byte(fmt.Sprintf("p%d", i)))
		case 1, 2:
			kind := map[byte]string{1: "subscribe", 2: "unsubscribe"}[op%8]
			w = fmt.Appendf(w, "*3\r\n$%d\r\n%s\r\n$2\r\nc%d\r\n:%d\r\n", len(kind), kind, arg()%4, arg())
		case 3:
			w = fmt.Appendf(w, "*6\r\n$10\r\ncsubscribe\r\n$2\r\nc%d\r\n:1\r\n:%d\r\n:%d\r\n:%d\r\n", arg()%4, arg(), arg(), arg())
		case 4:
			w = fmt.Appendf(w, "*6\r\n$10\r\ncsubscribe\r\n$2\r\nc0\r\n:1\r\n:%d\r\n:-%d\r\n:1\r\n", arg(), arg())
		case 5:
			w = append(w, "*4\r\n$10\r\ncsubscribe\r\n$2\r\nc0\r\n:1\r\n:0\r\n"...)
		case 6:
			w = fmt.Appendf(w, "-ERR refused %d\r\n", arg())
		case 7:
			n := int(arg() % 16)
			end := min(i+1+n, len(prog))
			w = append(w, prog[i+1:end]...)
			i = end - 1
		}
	}
	return w
}

// ackLog records, in order, what a tcpConn's read loop hands out: pushes to
// its Handler and answers to CSUBSCRIBE callbacks.
type ackLog struct {
	mu     sync.Mutex
	events []string
}

func (l *ackLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *ackLog) OnMessage(channel string, payload []byte) {
	l.add(fmt.Sprintf("message %s %q", channel, payload))
}

func (l *ackLog) OnDisconnect(error) {}

// ackEvent names callback i's answer: a result, a refusal, or the end of
// the connection.
func ackEvent(i int, res ReplayResult, err error) string {
	switch {
	case errors.Is(err, ErrClosed):
		return fmt.Sprintf("ack %d closed", i)
	case err != nil:
		return fmt.Sprintf("ack %d refused", i)
	}
	return fmt.Sprintf("ack %d %+v", i, res)
}

// readAcks runs a tcpConn's read loop over stream with k cursor subscribes
// pending and returns what it handed out.
func readAcks(t *testing.T, k int, stream []byte) []string {
	client, server := net.Pipe()
	pubClient, pubServer := net.Pipe()
	defer pubServer.Close()
	l := &ackLog{}
	c := &tcpConn{handler: l, subSock: client, pubSock: pubClient, subW: resp.NewWriter(client), done: make(chan struct{})}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		io.Copy(io.Discard, server) //nolint:errcheck // ends when the pipe closes
	}()
	for i := 0; i < k; i++ {
		if err := c.SubscribeCursor("c0", message.Cursor{}, func(res ReplayResult, err error) {
			l.add(ackEvent(i, res, err))
		}); err != nil {
			t.Fatal(err)
		}
	}
	read := make(chan struct{})
	go func() {
		defer close(read)
		c.readLoop()
	}()
	server.Write(stream) //nolint:errcheck // the read loop may stop early on a protocol error
	server.Close()
	<-read
	<-drained
	return l.events
}

// wantAcks is the model: the same stream read push by push, each message
// push handed to the handler, each csubscribe frame or error to the next of
// the k callbacks while one waits, everything else dropped, up to the first
// read error; then each callback still waiting gets an error.
func wantAcks(k int, stream []byte) []string {
	var out []string
	r := resp.NewReader(bytes.NewReader(stream))
	next := 0
	for {
		channel, payload, ok, v, err := r.ReadPush()
		switch {
		case err != nil:
			for ; next < k; next++ {
				out = append(out, ackEvent(next, ReplayResult{}, ErrClosed))
			}
			return out
		case ok:
			out = append(out, fmt.Sprintf("message %s %q", channel, payload))
			continue
		case next == k:
			continue
		case v.Kind == resp.KindError:
			out = append(out, ackEvent(next, ReplayResult{}, errRefused))
		case v.Kind != resp.KindArray || len(v.Array) == 0 || string(v.Array[0].Str) != "csubscribe":
			continue
		case len(v.Array) == 6 && v.Array[3].Int >= 0 && v.Array[4].Int >= 0 && v.Array[5].Int >= 0:
			out = append(out, ackEvent(next, ReplayResult{Replayed: int(v.Array[3].Int), Missed: uint64(v.Array[4].Int), Epoch: uint64(v.Array[5].Int)}, nil))
		default:
			out = append(out, ackEvent(next, ReplayResult{}, errRefused))
		}
		next++
	}
}

var errRefused = errors.New("refused")

// FuzzSubscriberAcks drives the subscriber socket's read loop with cursor
// subscribes pending over any mix of pushes, acks, errors and garbage: it
// never panics, answers each callback exactly once, in command order, and
// never crosses a push with an answer.
func FuzzSubscriberAcks(f *testing.F) {
	// An ack, a subscribe ack, a short csubscribe (an error), then an -ERR
	// with no callback left.
	f.Add(uint8(2), []byte{3, 1, 2, 3, 0, 1, 3, 4, 5, 6})
	// A push, an -ERR, a subscribe ack, an ack, an ack with a negative count.
	f.Add(uint8(3), []byte{0, 0, 6, 1, 1, 1, 0, 3, 0, 9, 9, 9, 4, 2, 3})
	// A short csubscribe answers the one callback; the ack behind it finds none.
	f.Add(uint8(1), []byte{5, 3, 0, 0, 0, 0})
	// Garbage ends the stream ahead of an ack.
	f.Add(uint8(4), []byte{7, 5, '*', '2', '\r', '\n', ':', 3, 0, 0, 0, 0})
	// An -ERR the broker sends before closing (a protocol error, a broker
	// unavailable) reads as a refusal; the callbacks behind it get ErrClosed.
	f.Add(uint8(3), []byte{6, 0})
	// A connection that ends answers every waiting callback.
	f.Add(uint8(5), []byte{})
	// Answers with no callback pending are dropped.
	f.Add(uint8(0), []byte{6, 0, 3, 1, 2, 3, 0})
	f.Fuzz(func(t *testing.T, k uint8, prog []byte) {
		stream := ackStream(prog)
		got, want := readAcks(t, int(k%8), stream), wantAcks(int(k%8), stream)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("stream %q with %d pending:\n got %q\nwant %q", stream, k%8, got, want)
		}
	})
}
