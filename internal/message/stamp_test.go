package message

import (
	"testing"
	"testing/quick"
)

func TestEnvelopeStampRoundTrip(t *testing.T) {
	in := Envelope{
		Type:    TypeData,
		ID:      ID{Node: 3, Seq: 11},
		Channel: "game",
		Payload: []byte("hi"),
		Stamp:   1722800000123456789,
	}
	out, err := Unmarshal(in.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if out.Stamp != in.Stamp {
		t.Fatalf("Stamp = %d, want %d", out.Stamp, in.Stamp)
	}
}

func TestPeekStampMatchesUnmarshal(t *testing.T) {
	f := func(typ uint8, node uint32, seq uint64, stamp int64, channel string, payload []byte) bool {
		if typ == 0 {
			typ = 1
		}
		if stamp < 0 {
			stamp = -stamp // stamps are UnixNano values, never negative
		}
		in := Envelope{
			Type:    Type(typ),
			ID:      ID{Node: node, Seq: seq},
			Channel: channel,
			Payload: payload,
			Stamp:   stamp,
		}
		data := in.Marshal()
		gotType, gotStamp, ok := PeekStamp(data)
		if !ok {
			return false
		}
		full, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return gotType == full.Type && gotStamp == full.Stamp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPeekStampRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{0xFF, 0x01}, // wrong magic
		[]byte("PING\r\n"),
	}
	for _, data := range cases {
		if _, _, ok := PeekStamp(data); ok {
			t.Errorf("PeekStamp(%q) accepted garbage", data)
		}
	}
	// Truncated after the magic+type: header uvarints missing.
	env := Envelope{Type: TypeData, ID: ID{Node: 1, Seq: 1}, Stamp: 99}
	data := env.Marshal()
	if _, _, ok := PeekStamp(data[:3]); ok {
		t.Error("PeekStamp accepted truncated header")
	}
}

func TestPeekStampZeroAlloc(t *testing.T) {
	env := Envelope{Type: TypeData, ID: ID{Node: 1, Seq: 42}, Channel: "game", Payload: make([]byte, 256), Stamp: 123456}
	data := env.Marshal()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := PeekStamp(data); !ok {
			t.Fatal("PeekStamp failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("PeekStamp allocates %v per run, want 0", allocs)
	}
}

func TestPeekNodeMatchesUnmarshal(t *testing.T) {
	f := func(typ uint8, version uint64, node uint32, seq uint64, channel string, payload []byte) bool {
		if typ == 0 {
			typ = 1
		}
		in := Envelope{Type: Type(typ), PlanVersion: version, ID: ID{Node: node, Seq: seq}, Channel: channel, Payload: payload}
		data := in.Marshal()
		got, ok := PeekNode(data)
		if !ok {
			return false
		}
		full, err := Unmarshal(data)
		if err != nil {
			return false
		}
		// PeekRouting is the same peek with the type and plan version kept.
		rt, rv, rn, ok := PeekRouting(data)
		return got == full.ID.Node && ok && rt == full.Type && rv == full.PlanVersion && rn == full.ID.Node
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPeekNodeRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {0x00}, {0xFF, 0x01}, []byte("PING\r\n")} {
		if _, ok := PeekNode(data); ok {
			t.Errorf("PeekNode(%q) accepted garbage", data)
		}
	}
}

func TestPeekNodeZeroAlloc(t *testing.T) {
	env := Envelope{Type: TypeData, ID: ID{Node: 0xD001, Seq: 42}, Channel: "game", Payload: make([]byte, 256)}
	data := env.Marshal()
	allocs := testing.AllocsPerRun(1000, func() {
		if n, ok := PeekNode(data); !ok || n != 0xD001 {
			t.Fatal("PeekNode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("PeekNode allocates %v per run, want 0", allocs)
	}
}
