package message

import (
	"encoding/binary"
	"testing"
)

// peekedLen is how many bytes a peek reads: the fixed header and the first
// varints uvarints after it (0 when data is too short for them).
func peekedLen(data []byte, varints int) int {
	if !peekHeader(data) {
		return 0
	}
	n := envelopeHeaderLen
	for i := 0; i < varints; i++ {
		_, k := binary.Uvarint(data[n:])
		if k <= 0 {
			return 0
		}
		n += k
	}
	return n
}

// FuzzPeekAgreesWithUnmarshal holds the three header peeks to the decoder.
// Whenever Unmarshal accepts a frame, PeekStamp, PeekRouting and
// PeekStageStamp accept it too and report the fields Unmarshal decoded. A
// peek may accept what Unmarshal rejects only when the defect lies past the
// bytes the peek reads: the bytes it read, completed by a well-formed empty
// tail, must decode, to the fields the peek reported.
func FuzzPeekAgreesWithUnmarshal(f *testing.F) {
	f.Add((&Envelope{Type: TypeData, ID: ID{Node: 7, Seq: 42}, Channel: "tile", Payload: []byte("x"), Stamp: 1e18, PlanVersion: 3}).Marshal())
	f.Add((&Envelope{Type: TypeSwitch, Channel: "hot", Servers: []string{"pub2"}, RingServers: []string{"pub1", "pub2"}, PlanVersion: 9}).Marshal())
	f.Add(stagedDataFrame(123456789))
	f.Add((&Envelope{Type: TypeData, ID: ID{Node: 1}, Channel: "c"}).Marshal()[:envelopeHeaderLen+3])
	// A node ID past 32 bits: every peek that reads it must reject it.
	f.Add(append(make([]byte, envelopeHeaderLen), 1, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 1, 0, 0, 0, 0))
	f.Add([]byte{envelopeMagic, byte(TypeData)})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= envelopeHeaderLen {
			data[0] = envelopeMagic // most mutations should reach the fields
		}
		env, err := Unmarshal(data)
		typ, stamp, okStamp := PeekStamp(data)
		rtyp, version, node, okRouting := PeekRouting(data)
		ss, okStage := PeekStageStamp(data)
		if err == nil {
			if !okStamp || typ != env.Type || stamp != env.Stamp {
				t.Fatalf("PeekStamp = %v %d %v, Unmarshal = %v %d", typ, stamp, okStamp, env.Type, env.Stamp)
			}
			if !okRouting || rtyp != env.Type || version != env.PlanVersion || node != env.ID.Node {
				t.Fatalf("PeekRouting = %v %d %d %v, Unmarshal = %v %d %d", rtyp, version, node, okRouting, env.Type, env.PlanVersion, env.ID.Node)
			}
			want := StageStamp{Type: env.Type, Stamp: env.Stamp, IngressUs: env.StageIngressUs, FanoutUs: env.StageFanoutUs, FlushUs: env.StageFlushUs}
			if !okStage || ss != want {
				t.Fatalf("PeekStageStamp = %+v %v, Unmarshal = %+v", ss, okStage, want)
			}
			return
		}
		// Rejected: a peek that accepted read only sound bytes.
		check := func(name string, varints int, ok bool, agree func(*Envelope) bool) {
			if !ok {
				return
			}
			n := peekedLen(data, varints)
			if n == 0 {
				t.Fatalf("%s accepted bytes it cannot have read", name)
			}
			// The uvarints Unmarshal reads after the peeked ones, each 0,
			// then an empty channel, strategy 0, no servers, no ring.
			tail := append(make([]byte, 4-varints, 8-varints), 0, 0, 0, 0)
			whole := append(append([]byte(nil), data[:n]...), tail...)
			env, err := Unmarshal(whole)
			if err != nil {
				t.Fatalf("%s accepted a frame whose first %d bytes Unmarshal rejects: %v", name, n, err)
			}
			if !agree(env) {
				t.Fatalf("%s disagrees with the decoded prefix %+v", name, env)
			}
		}
		check("PeekStamp", 4, okStamp, func(e *Envelope) bool { return e.Type == typ && e.Stamp == stamp })
		check("PeekRouting", 2, okRouting, func(e *Envelope) bool {
			return e.Type == rtyp && e.PlanVersion == version && e.ID.Node == node
		})
		check("PeekStageStamp", 4, okStage, func(e *Envelope) bool {
			return e.Stamp == ss.Stamp && e.StageIngressUs == ss.IngressUs && e.StageFanoutUs == ss.FanoutUs && e.StageFlushUs == ss.FlushUs
		})
	})
}
