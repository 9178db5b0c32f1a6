package message

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzStripRestamp holds the replay ring's storage pair to being an inverse:
// for every frame Unmarshal accepts with a zero stage block, restamping its
// stripped body with (epoch, seq) gives back the frame with those replay
// coordinates in its header, and stripping drops exactly StrippedLen bytes.
// The two-piece forms agree at every cut of the body: PutStrippedSplit lays
// out the same bytes, and AppendRestamped rebuilds the same frame from the
// two pieces.
func FuzzStripRestamp(f *testing.F) {
	f.Add((&Envelope{Type: TypeData, ID: ID{Node: 7, Seq: 42}, Channel: "tile", Payload: []byte("x"), Stamp: 1e18, PlanVersion: 3}).Marshal(), uint64(5), uint64(9))
	f.Add((&Envelope{Type: TypeForwarded, Epoch: 3, ChannelSeq: 4, Channel: "c"}).Marshal(), uint64(1)<<62, uint64(1))
	f.Add((&Envelope{Type: TypeSwitch, Channel: "hot", Servers: []string{"pub2"}}).Marshal(), uint64(0), uint64(0))
	f.Add([]byte("garbage"), uint64(1), uint64(2))
	// Cuts inside the two type bytes: the split pair must join them.
	f.Add((&Envelope{Type: TypeData, Channel: "c", Payload: []byte("ab")}).Marshal(), uint64(2), uint64(1))
	f.Add((&Envelope{Type: TypeData, Channel: "c", Payload: []byte("ab")}).Marshal(), uint64(2), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, epoch, seq uint64) {
		if len(data) >= envelopeHeaderLen {
			data[0] = envelopeMagic
			clear(data[stageIngressOff:envelopeHeaderLen]) // replayed frames carry zero marks
		}
		if _, err := Unmarshal(data); err != nil {
			return
		}
		body := AppendStripped(nil, data)
		if len(body) != len(data)-StrippedLen {
			t.Fatalf("stripped %d of %d bytes, want %d", len(data)-len(body), len(data), StrippedLen)
		}
		want := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(want[2:10], epoch)
		binary.LittleEndian.PutUint64(want[10:18], seq)
		if got := AppendRestamped(nil, body, nil, epoch, seq); !bytes.Equal(got, want) {
			t.Fatalf("restamped %x, want %x", got, want)
		}
		cut := int(seq % uint64(len(body)+1)) // every cut, 0 and len(body) included
		split := bytes.Repeat([]byte{0xAA}, len(body))
		PutStrippedSplit(split[:cut], split[cut:], data)
		if !bytes.Equal(split, body) {
			t.Fatalf("cut %d: split stripped %x, want %x", cut, split, body)
		}
		if got := AppendRestamped(nil, body[:cut], body[cut:], epoch, seq); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: split restamped %x, want %x", cut, got, want)
		}
	})
}
