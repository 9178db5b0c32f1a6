package message

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// stagedDataFrame encodes a stamped data envelope the way a publisher does.
func stagedDataFrame(stamp int64) []byte {
	e := &Envelope{
		Type:    TypeData,
		ID:      ID{Node: 7, Seq: 42},
		Channel: "tile.3.4",
		Payload: []byte("pos-update"),
		Stamp:   stamp,
	}
	return e.Marshal()
}

func TestStageStampRoundTrip(t *testing.T) {
	stamp := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC).UnixNano()
	data := stagedDataFrame(stamp)

	ingress := stamp + 250*int64(time.Microsecond)
	fanout := stamp + 900*int64(time.Microsecond)
	gotStamp, ok := StampStages(data, ingress, fanout)
	if !ok || gotStamp != stamp {
		t.Fatalf("StampStages = (%d, %v), want (%d, true)", gotStamp, ok, stamp)
	}
	if !StampFlush(data, stamp+1500*int64(time.Microsecond)) {
		t.Fatal("StampFlush refused a staged data frame")
	}

	s, ok := PeekStageStamp(data)
	if !ok {
		t.Fatal("PeekStageStamp failed on a stamped frame")
	}
	if s.Type != TypeData || s.Stamp != stamp {
		t.Fatalf("peeked type/stamp = %v/%d, want %v/%d", s.Type, s.Stamp, TypeData, stamp)
	}
	if s.IngressUs != 250 || s.FanoutUs != 900 || s.FlushUs != 1500 {
		t.Fatalf("stage offsets = %d/%d/%d, want 250/900/1500", s.IngressUs, s.FanoutUs, s.FlushUs)
	}
	if s.FanoutAt() != fanout {
		t.Fatalf("absolute fanout instant does not reconstruct: %d want %d", s.FanoutAt(), fanout)
	}

	// A full Unmarshal must see the in-place stage marks too.
	env, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if env.StageIngressUs != 250 || env.StageFanoutUs != 900 || env.StageFlushUs != 1500 {
		t.Fatalf("unmarshaled stage fields = %d/%d/%d, want 250/900/1500",
			env.StageIngressUs, env.StageFanoutUs, env.StageFlushUs)
	}
	if env.Channel != "tile.3.4" || string(env.Payload) != "pos-update" {
		t.Fatalf("payload fields corrupted by stamping: %q %q", env.Channel, env.Payload)
	}
}

func TestStageStampMarshalRoundTrip(t *testing.T) {
	// Stage fields set on the struct survive Marshal → Unmarshal.
	e := &Envelope{
		Type:           TypeForwarded,
		ID:             ID{Node: 3, Seq: 9},
		Channel:        "c",
		Payload:        []byte("x"),
		Stamp:          12345678,
		StageIngressUs: 11,
		StageFanoutUs:  22,
		StageFlushUs:   33,
	}
	got, err := Unmarshal(e.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.StageIngressUs != 11 || got.StageFanoutUs != 22 || got.StageFlushUs != 33 {
		t.Fatalf("stage fields = %d/%d/%d, want 11/22/33",
			got.StageIngressUs, got.StageFanoutUs, got.StageFlushUs)
	}
}

func TestStageStampClamping(t *testing.T) {
	stamp := int64(1_000_000_000_000)
	data := stagedDataFrame(stamp)

	// Marks at or before the publish stamp (clock skew) clamp to 1µs, never
	// to 0 ("unstamped"); marks past the uint32 range clamp to MaxUint32.
	farFuture := stamp + int64(1<<33)*1000
	if _, ok := StampStages(data, stamp-int64(time.Second), farFuture); !ok {
		t.Fatal("StampStages refused a valid frame")
	}
	s, _ := PeekStageStamp(data)
	if s.IngressUs != 1 {
		t.Fatalf("skewed ingress mark = %d, want clamp to 1", s.IngressUs)
	}
	if s.FanoutUs != 1<<32-1 {
		t.Fatalf("overflowing fanout mark = %d, want clamp to MaxUint32", s.FanoutUs)
	}
}

func TestStageStampRefusals(t *testing.T) {
	stamp := int64(5_000_000)
	now := stamp + 1000

	control := &Envelope{Type: TypePlan, Stamp: stamp, Payload: []byte("p")}
	cdata := control.Marshal()
	if _, ok := StampStages(cdata, now, now); ok {
		t.Fatal("StampStages stamped a control envelope")
	}
	if StampFlush(cdata, now) {
		t.Fatal("StampFlush stamped a control envelope")
	}

	unstamped := &Envelope{Type: TypeData, Channel: "c", Payload: []byte("p")}
	udata := unstamped.Marshal()
	if _, ok := StampStages(udata, now, now); ok {
		t.Fatal("StampStages stamped a frame with no publisher stamp")
	}

	if _, ok := StampStages([]byte("not an envelope"), now, now); ok {
		t.Fatal("StampStages stamped garbage")
	}
	if _, ok := StampStages(nil, now, now); ok {
		t.Fatal("StampStages stamped nil")
	}
}

func TestPeekStageStampGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{envelopeMagic},
		[]byte("garbage that is long enough to not be truncated"),
		// Right magic but truncated before the stage block ends.
		append([]byte{envelopeMagic, byte(TypeData)}, make([]byte, seqHeaderLen+3)...),
	}
	for i, c := range cases {
		if _, ok := PeekStageStamp(c); ok {
			t.Fatalf("case %d: PeekStageStamp accepted garbage %q", i, c)
		}
	}
}

// TestOldMagicRejected: the pre-stage framing is gone. A frame opening with
// its magic byte is not an envelope to any entry point, and the in-place
// stampers leave it untouched.
func TestOldMagicRejected(t *testing.T) {
	data := stagedDataFrame(987654321)
	data[0] = 0xD7
	before := bytes.Clone(data)

	if _, err := Unmarshal(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("Unmarshal = %v, want ErrBadMagic", err)
	}
	if _, _, ok := PeekStamp(data); ok {
		t.Fatal("PeekStamp accepted the old magic")
	}
	if _, ok := PeekNode(data); ok {
		t.Fatal("PeekNode accepted the old magic")
	}
	if _, ok := PeekStageStamp(data); ok {
		t.Fatal("PeekStageStamp accepted the old magic")
	}
	if _, _, ok := PeekChannelSeq(data); ok {
		t.Fatal("PeekChannelSeq accepted the old magic")
	}
	if _, ok := StampStages(data, 987655321, 987656321); ok {
		t.Fatal("StampStages accepted the old magic")
	}
	if StampFlush(data, 987657321) {
		t.Fatal("StampFlush accepted the old magic")
	}
	if StampChannelSeq(data, 4, 17) {
		t.Fatal("StampChannelSeq accepted the old magic")
	}
	if !bytes.Equal(data, before) {
		t.Fatal("a rejected frame was written to")
	}
}

func FuzzStageStamp(f *testing.F) {
	f.Add(stagedDataFrame(123456789))
	f.Add([]byte{envelopeMagic, byte(TypeData)})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Peeks and in-place stamps must never panic, whatever the bytes.
		s, ok := PeekStageStamp(data)
		if ok {
			// A peekable frame must agree with PeekStamp.
			typ, stamp, ok2 := PeekStamp(data)
			if !ok2 || typ != s.Type || stamp != s.Stamp {
				t.Fatalf("PeekStageStamp %v/%d disagrees with PeekStamp %v/%d (ok=%v)",
					s.Type, s.Stamp, typ, stamp, ok2)
			}
		}
		if stamp, ok := StampStages(data, 1_000_000, 2_000_000); ok {
			if stamp == 0 {
				t.Fatal("StampStages reported ok with zero stamp")
			}
			s2, ok2 := PeekStageStamp(data)
			if !ok2 || s2.IngressUs == 0 || s2.FanoutUs == 0 {
				t.Fatalf("stamped frame does not peek back: %+v ok=%v", s2, ok2)
			}
		}
		StampFlush(data, 3_000_000)
	})
}

func TestPeekStageStampZeroAlloc(t *testing.T) {
	data := stagedDataFrame(time.Now().UnixNano())
	if _, ok := StampStages(data, time.Now().UnixNano(), time.Now().UnixNano()); !ok {
		t.Fatal("StampStages failed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := PeekStageStamp(data); !ok {
			t.Fatal("peek failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("PeekStageStamp allocates %v allocs/op, want 0", allocs)
	}
}

func BenchmarkPeekStageStamp(b *testing.B) {
	data := stagedDataFrame(time.Now().UnixNano())
	StampStages(data, time.Now().UnixNano(), time.Now().UnixNano())
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		s, _ := PeekStageStamp(data)
		sink += s.FanoutUs
	}
	_ = sink
}

func BenchmarkStampStages(b *testing.B) {
	data := stagedDataFrame(time.Now().UnixNano())
	now := time.Now().UnixNano()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StampStages(data, now, now+1000)
	}
}

// TestStageBlockLayout pins the wire offsets so an accidental layout change
// breaks loudly rather than silently misattributing stages.
func TestStageBlockLayout(t *testing.T) {
	data := stagedDataFrame(1_000_000)
	if _, ok := StampStages(data, 1_000_000+7000, 1_000_000+13000); !ok {
		t.Fatal("StampStages failed")
	}
	if got := binary.LittleEndian.Uint32(data[18:22]); got != 7 {
		t.Fatalf("ingress at [18,22) = %d, want 7", got)
	}
	if got := binary.LittleEndian.Uint32(data[22:26]); got != 13 {
		t.Fatalf("fanout at [22,26) = %d, want 13", got)
	}
	if !StampFlush(data, 1_000_000+21000) {
		t.Fatal("StampFlush failed")
	}
	if got := binary.LittleEndian.Uint32(data[26:30]); got != 21 {
		t.Fatalf("flush at [26,30) = %d, want 21", got)
	}
}
