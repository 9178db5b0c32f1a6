package message

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		env  Envelope
	}{
		{
			name: "data",
			env: Envelope{
				Type:    TypeData,
				ID:      ID{Node: 7, Seq: 42},
				Channel: "tile-3-4",
				Payload: []byte("pos=12,9"),
			},
		},
		{
			name: "switch with servers",
			env: Envelope{
				Type:        TypeSwitch,
				ID:          ID{Node: 1, Seq: 1},
				Channel:     "hot",
				Servers:     []string{"pub2", "pub3"},
				Strategy:    2,
				PlanVersion: 9,
			},
		},
		{
			name: "empty payload and channel",
			env:  Envelope{Type: TypeDrained, ID: ID{Node: 3, Seq: 9}},
		},
		{
			name: "max values",
			env: Envelope{
				Type:        TypePlan,
				ID:          ID{Node: math.MaxUint32, Seq: math.MaxUint64},
				Channel:     string(bytes.Repeat([]byte("c"), 300)),
				PlanVersion: math.MaxUint64,
				Payload:     bytes.Repeat([]byte{0xff, 0x00}, 500),
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data := tt.env.Marshal()
			got, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got.Type != tt.env.Type || got.ID != tt.env.ID ||
				got.Channel != tt.env.Channel ||
				got.Strategy != tt.env.Strategy ||
				got.PlanVersion != tt.env.PlanVersion {
				t.Fatalf("header mismatch: got %+v want %+v", got, tt.env)
			}
			if !bytes.Equal(got.Payload, tt.env.Payload) {
				t.Fatalf("payload mismatch: got %q want %q", got.Payload, tt.env.Payload)
			}
			if !reflect.DeepEqual(sliceOrNil(got.Servers), sliceOrNil(tt.env.Servers)) {
				t.Fatalf("servers mismatch: got %v want %v", got.Servers, tt.env.Servers)
			}
		})
	}
}

func sliceOrNil(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}

func TestEnvelopeRoundTripQuick(t *testing.T) {
	f := func(typ uint8, node uint32, seq uint64, channel string, payload []byte, servers []string, strategy uint8, version uint64) bool {
		if typ == 0 {
			typ = 1
		}
		in := Envelope{
			Type:        Type(typ),
			ID:          ID{Node: node, Seq: seq},
			Channel:     channel,
			Payload:     payload,
			Servers:     servers,
			Strategy:    strategy,
			PlanVersion: version,
		}
		out, err := Unmarshal(in.Marshal())
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.ID == in.ID &&
			out.Channel == in.Channel &&
			bytes.Equal(out.Payload, in.Payload) &&
			reflect.DeepEqual(sliceOrNil(out.Servers), sliceOrNil(in.Servers)) &&
			out.Strategy == in.Strategy && out.PlanVersion == in.PlanVersion
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"one byte", []byte{envelopeMagic}, ErrTruncated},
		{"bad magic", []byte{0x00, 0x01, 0x00}, ErrBadMagic},
		{"cut off mid-varint", []byte{envelopeMagic, 1, 0x80}, ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal(tt.data); err != tt.want {
				t.Fatalf("got %v, want %v", err, tt.want)
			}
		})
	}
}

func TestUnmarshalTruncationsNeverPanic(t *testing.T) {
	env := Envelope{
		Type:    TypeSwitch,
		ID:      ID{Node: 9, Seq: 1234},
		Channel: "channel-name",
		Servers: []string{"a", "b", "c"},
		Payload: []byte("payload-bytes"),
	}
	full := env.Marshal()
	for i := 0; i < len(full); i++ {
		if _, err := Unmarshal(full[:i]); err == nil && i < len(full)-len(env.Payload) {
			t.Fatalf("truncation at %d unexpectedly succeeded", i)
		}
	}
}

func TestGeneratorUnique(t *testing.T) {
	g := NewGenerator(5)
	const n = 1000
	const workers = 8
	ids := make(chan ID, n*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ids <- g.Next()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[ID]struct{}, n*workers)
	for id := range ids {
		if id.Node != 5 {
			t.Fatalf("wrong node in ID: %v", id)
		}
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate ID generated: %v", id)
		}
		seen[id] = struct{}{}
	}
}

func TestGeneratorZeroNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator(0) did not panic")
		}
	}()
	NewGenerator(0)
}

func TestTypeString(t *testing.T) {
	for typ := TypeData; typ <= TypeForwarded; typ++ {
		if s := typ.String(); s == "" || s[0] == 't' && s != "type(0)" && len(s) > 5 && s[:5] == "type(" {
			t.Fatalf("missing name for type %d", typ)
		}
	}
	if got := Type(200).String(); got != "type(200)" {
		t.Fatalf("unknown type formatting: %q", got)
	}
}
