package dynamoth

import (
	"sync"

	"github.com/dynamoth/dynamoth/internal/message"
)

// Client-side half of zero-loss reconfiguration (the broker half is the
// replay ring in internal/broker): every subscription carries a seqTracker
// that folds the (epoch, channelSeq) stamps brokers put on data frames into
// a resume cursor. When the subscription is re-homed — a SWITCH migration, a
// failover repair, a redial after a disconnect — the cursor is presented to
// the new home, which replays the frames the client is owed from its ring.
//
// An epoch names one ring incarnation on one broker; sequences are dense
// within it. The tracker keeps, per epoch, the highest contiguous sequence
// consumed plus a bounded set of out-of-order arrivals, so the cursor always
// claims exactly what was delivered: a hole left by a frame that never
// arrives stays visible (openGaps) until the broker either replays it or
// declares it unrecoverable (forgive).

const (
	// maxTrackedEpochs bounds the per-subscription epoch tracks. A
	// subscription sees a new epoch only when its channel lands on a new
	// broker (or a recreated ring), so a handful covers any realistic
	// failover chain; the oldest track is evicted beyond the bound.
	maxTrackedEpochs = 8
	// maxPendingSeqs bounds the out-of-order arrival set per epoch. Overflow
	// means ordering is pathologically scrambled (or sequences were forged);
	// the tracker then resets contiguity to the newest sequence rather than
	// growing without bound.
	maxPendingSeqs = 1024
)

// epochTrack is gap accounting for one ring incarnation.
type epochTrack struct {
	epoch  uint64
	contig uint64 // highest sequence with no holes below (within the observed baseline)
	// pending holds sequences above contig that have arrived; holes below
	// them are the channel's open gaps.
	pending map[uint64]struct{}
}

// drain advances contig through any pending sequences it now reaches.
func (t *epochTrack) drain() {
	for {
		if _, ok := t.pending[t.contig+1]; !ok {
			return
		}
		delete(t.pending, t.contig+1)
		t.contig++
	}
}

// seqTracker is one subscription's delivery-continuity state. It has its own
// mutex — observation happens on the lock-free delivery path, per channel.
type seqTracker struct {
	mu sync.Mutex
	// lastStamp is the newest publish stamp consumed: the cursor's
	// cross-epoch fallback (a broker whose ring epoch we have never seen
	// replays frames stamped at or after it).
	lastStamp int64
	// epochs is in arrival order; the current epoch is almost always last.
	epochs []*epochTrack
}

// observe folds one arrived frame into the tracker. It is called for
// delivered frames AND for dedup-suppressed duplicates: a forwarded copy
// re-stamped by another broker consumes that broker's (epoch, seq) even when
// its payload was already seen, otherwise the suppressed copy would leave a
// phantom hole in the new epoch's sequence.
func (s *seqTracker) observe(epoch, seq uint64, stamp int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if stamp > s.lastStamp {
		s.lastStamp = stamp
	}
	if epoch == 0 {
		return // unstamped: a broker without replay rings
	}
	t := s.track(epoch)
	if t == nil {
		// First frame of a new epoch baselines contiguity at its sequence:
		// earlier sequences were published before this subscription arrived
		// (or are replay overlap that will land below the baseline).
		t = &epochTrack{epoch: epoch, contig: seq}
		s.epochs = append(s.epochs, t)
		if len(s.epochs) > maxTrackedEpochs {
			s.epochs = s.epochs[1:]
		}
		return
	}
	switch {
	case seq <= t.contig:
		// Duplicate or below-baseline replay overlap.
	case seq == t.contig+1:
		t.contig = seq
		t.drain()
	default:
		if t.pending == nil {
			t.pending = make(map[uint64]struct{})
		}
		if len(t.pending) >= maxPendingSeqs {
			// Give up on precise accounting rather than grow without bound;
			// the end-to-end loss checks do not depend on this set.
			t.contig = seq
			for q := range t.pending {
				if q <= seq {
					delete(t.pending, q)
				}
			}
			t.drain()
			return
		}
		t.pending[seq] = struct{}{}
	}
}

// forgive records the broker's verdict that every frame of epoch up to and
// including upto is unrecoverable (overwritten in its ring): contiguity jumps
// over the hole so the next cursor does not ask for it again. It returns how
// many sequences it gave up — the ones above contig that have not arrived —
// so a hole named by two verdicts is counted once. An epoch it does not track
// starts at the verdict and gives up nothing it can count.
func (s *seqTracker) forgive(epoch, upto uint64) uint64 {
	if epoch == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.track(epoch)
	if t == nil {
		t = &epochTrack{epoch: epoch, contig: upto}
		s.epochs = append(s.epochs, t)
		if len(s.epochs) > maxTrackedEpochs {
			s.epochs = s.epochs[1:]
		}
		return 0
	}
	if upto <= t.contig {
		return 0
	}
	lost := upto - t.contig
	t.contig = upto
	for q := range t.pending {
		if q <= upto {
			delete(t.pending, q)
			lost--
		}
	}
	t.drain()
	return lost
}

func (s *seqTracker) track(epoch uint64) *epochTrack {
	for _, t := range s.epochs {
		if t.epoch == epoch {
			return t
		}
	}
	return nil
}

// cursor snapshots the tracker into a resume cursor plus the per-epoch
// contiguous sequence it claimed (the base the broker's missed count is
// relative to). ok is false when the tracker has consumed nothing — the
// caller then has nothing to resume and plain-subscribes.
func (s *seqTracker) cursor() (cur message.Cursor, sent map[uint64]uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.epochs) == 0 && s.lastStamp == 0 {
		return message.Cursor{}, nil, false
	}
	cur.SinceStamp = s.lastStamp
	if len(s.epochs) > 0 {
		cur.Seen = make([]message.EpochSeq, 0, len(s.epochs))
		sent = make(map[uint64]uint64, len(s.epochs))
		for _, t := range s.epochs {
			cur.Seen = append(cur.Seen, message.EpochSeq{Epoch: t.epoch, Seq: t.contig})
			sent[t.epoch] = t.contig
		}
	}
	return cur, sent, true
}

// openGaps counts sequence holes currently unaccounted for: frames the
// cursor machinery still expects a broker to replay (or declare lost). At
// quiescence — no publishes in flight, every re-home's replay served — it
// must be zero; the chaos suite asserts exactly that.
func (s *seqTracker) openGaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.epochs {
		if len(t.pending) == 0 {
			continue
		}
		// Holes, not pending arrivals: the span (contig, maxPending] minus
		// the arrivals inside it.
		var max uint64
		for q := range t.pending {
			if q > max {
				max = q
			}
		}
		n += int(max-t.contig) - len(t.pending)
	}
	return n
}
