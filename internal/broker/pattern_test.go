package broker

import (
	"testing"
	"testing/quick"
	"time"
)

func TestGlobMatch(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "", true},
		{"*", "anything", true},
		{"tile-*", "tile-3-4", true},
		{"tile-*", "room-1", false},
		{"tile-?-?", "tile-3-4", true},
		{"tile-?-?", "tile-33-4", false},
		{"room.[abc]", "room.b", true},
		{"room.[abc]", "room.d", false},
		{"room.[^abc]", "room.d", true},
		{"room.[^abc]", "room.a", false},
		{"room.[a-c]", "room.b", true},
		{"room.[a-c]", "room.z", false},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abd", false},
		{"a**c", "abbbc", true},
		{"", "", true},
		{"", "x", false},
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"abc", "ab", false},
		{"ab", "abc", false},
		{`a\*c`, "a*c", true},
		{`a\*c`, "abc", false},
		{"h?llo*", "hello-world", true},
		{"[", "x", false},  // unterminated class
		{"[ab", "a", true}, // unterminated class still matches members
		{"*-*-*", "a-b-c", true},
		{"*-*-*", "a-b", false},
	}
	for _, tt := range tests {
		if got := globMatch(tt.pattern, tt.s); got != tt.want {
			t.Errorf("globMatch(%q, %q)=%v want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
}

func TestGlobMatchQuickProperties(t *testing.T) {
	// "*" matches everything; a literal pattern matches only itself.
	star := func(s string) bool { return globMatch("*", s) }
	if err := quick.Check(star, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	selfMatch := func(s string) bool {
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '*', '?', '[', '\\':
				return true // skip meta-containing strings
			}
		}
		return globMatch(s, s)
	}
	if err := quick.Check(selfMatch, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPSubscribeDelivery(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	sink := newChanSink(16)
	s, err := b.Connect("c", sink)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.PSubscribe("tile-*"); err != nil || n != 1 {
		t.Fatalf("PSubscribe=%d,%v", n, err)
	}
	if got := b.Publish("tile-3-4", []byte("pos")); got != 1 {
		t.Fatalf("receivers=%d", got)
	}
	if m := sink.next(t); m[0] != "tile-3-4" || m[1] != "pos" {
		t.Fatalf("delivery=%v", m)
	}
	// Non-matching channel: nothing.
	if got := b.Publish("room-1", []byte("x")); got != 0 {
		t.Fatalf("receivers=%d", got)
	}
	sink.expectNone(t, 30*time.Millisecond)
}

func TestPSubscribePatternSinkAttribution(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	sink := &patternSink{frames: make(chan [3]string, 8)}
	s, err := b.Connect("c", sink)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PSubscribe("news.*"); err != nil {
		t.Fatal(err)
	}
	b.Publish("news.sports", []byte("goal"))
	select {
	case f := <-sink.frames:
		if f[0] != "news.*" || f[1] != "news.sports" || f[2] != "goal" {
			t.Fatalf("frame=%v", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no pattern delivery")
	}
}

// patternSink is an EnqueueSink, as a TCP connection is: it receives each
// delivery with the pattern that matched it (empty for a direct
// subscription).
type patternSink struct {
	frames chan [3]string
}

func (p *patternSink) Enqueue(channel, pattern string, payload []byte) bool {
	select {
	case p.frames <- [3]string{pattern, channel, string(payload)}:
		return true
	default:
		return false
	}
}

// Deliver implements Sink; the broker only ever calls Enqueue.
func (p *patternSink) Deliver(string, []byte) {}

func (p *patternSink) Closed(error) {}

func TestChannelAndPatternBothDeliver(t *testing.T) {
	// Redis semantics: a session subscribed to both the channel and a
	// matching pattern receives the message twice.
	b := New(Options{})
	defer b.Close()
	sink := newChanSink(16)
	s, _ := b.Connect("c", sink)
	s.Subscribe("x")
	s.PSubscribe("x*")
	if got := b.Publish("x", []byte("twice")); got != 2 {
		t.Fatalf("receivers=%d, want 2", got)
	}
	sink.next(t)
	sink.next(t)
}

func TestPUnsubscribe(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	sink := newChanSink(16)
	s, _ := b.Connect("c", sink)
	s.PSubscribe("a*", "b*")
	if n, err := s.PUnsubscribe("a*"); err != nil || n != 1 {
		t.Fatalf("PUnsubscribe=%d,%v", n, err)
	}
	b.Publish("alpha", []byte("gone"))
	b.Publish("beta", []byte("still"))
	if m := sink.next(t); m[0] != "beta" {
		t.Fatalf("delivery=%v", m)
	}
	// Bare PUnsubscribe drops everything.
	if n, _ := s.PUnsubscribe(); n != 0 {
		t.Fatalf("PUnsubscribe()=%d", n)
	}
}

func TestPatternCleanupOnClose(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	sink := newChanSink(4)
	s, _ := b.Connect("c", sink)
	s.PSubscribe("z*")
	s.Close()
	// Publication to a matching channel reaches nobody afterwards.
	deadline := time.Now().Add(2 * time.Second)
	for b.Publish("zebra", []byte("x")) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pattern subscription leaked after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMixedCountsRedisStyle(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	sink := newChanSink(4)
	s, _ := b.Connect("c", sink)
	if n, _ := s.Subscribe("a"); n != 1 {
		t.Fatalf("count=%d", n)
	}
	if n, _ := s.PSubscribe("p*"); n != 2 {
		t.Fatalf("count=%d", n)
	}
	if n, _ := s.Unsubscribe("a"); n != 1 {
		t.Fatalf("count=%d", n)
	}
	if got := s.PatternSubscriptions(); len(got) != 1 || got[0] != "p*" {
		t.Fatalf("patterns=%v", got)
	}
}

func TestRESPPSubscribeFlow(t *testing.T) {
	addr, _ := startTCP(t)
	sub := dialRESP(t, addr)
	pub := dialRESP(t, addr)

	ack := sub.cmd(t, "PSUBSCRIBE", "tile-*")
	if string(ack.Array[0].Str) != "psubscribe" || ack.Array[2].Int != 1 {
		t.Fatalf("ack=%+v", ack)
	}
	if v := pub.cmd(t, "PUBLISH", "tile-7-7", "hi"); v.Int != 1 {
		t.Fatalf("PUBLISH=%+v", v)
	}
	msg := sub.read(t)
	if len(msg.Array) != 4 ||
		string(msg.Array[0].Str) != "pmessage" ||
		string(msg.Array[1].Str) != "tile-*" ||
		string(msg.Array[2].Str) != "tile-7-7" ||
		string(msg.Array[3].Str) != "hi" {
		t.Fatalf("pmessage frame=%+v", msg)
	}
	unack := sub.cmd(t, "PUNSUBSCRIBE", "tile-*")
	if string(unack.Array[0].Str) != "punsubscribe" || unack.Array[2].Int != 0 {
		t.Fatalf("unack=%+v", unack)
	}
	if v := pub.cmd(t, "PUBLISH", "tile-1-1", "later"); v.Int != 0 {
		t.Fatalf("delivery after punsubscribe: %+v", v)
	}
}
