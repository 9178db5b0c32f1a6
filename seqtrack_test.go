package dynamoth

import "testing"

func TestSeqTrackerContiguityAndGaps(t *testing.T) {
	tr := &seqTracker{}
	if _, _, ok := tr.cursor(); ok {
		t.Fatal("fresh tracker produced a cursor")
	}

	// Baseline at first-seen sequence: 5 is not a gap from 1.
	tr.observe(7, 5, 100)
	tr.observe(7, 6, 110)
	if gaps := tr.openGaps(); gaps != 0 {
		t.Fatalf("openGaps = %d after contiguous flow", gaps)
	}

	// 8 arrives before 7: one hole, then drained when 7 lands.
	tr.observe(7, 8, 130)
	if gaps := tr.openGaps(); gaps != 1 {
		t.Fatalf("openGaps = %d with seq 7 missing", gaps)
	}
	tr.observe(7, 7, 120)
	if gaps := tr.openGaps(); gaps != 0 {
		t.Fatalf("openGaps = %d after hole filled", gaps)
	}

	cur, sent, ok := tr.cursor()
	if !ok || cur.SinceStamp != 130 || sent[7] != 8 {
		t.Fatalf("cursor = %+v, sent = %v, ok = %v; want stamp 130, contig 8", cur, sent, ok)
	}
	if seq, ok := cur.SeqFor(7); !ok || seq != 8 {
		t.Fatalf("cursor claims seq %d for epoch 7, want 8", seq)
	}

	// Duplicates and below-baseline replay overlap are ignored.
	tr.observe(7, 3, 90)
	tr.observe(7, 8, 130)
	if _, sent, _ := tr.cursor(); sent[7] != 8 {
		t.Fatalf("duplicate moved contig to %d", sent[7])
	}
}

func TestSeqTrackerForgive(t *testing.T) {
	tr := &seqTracker{}
	tr.observe(9, 1, 10)
	tr.observe(9, 5, 50) // 2..4 missing
	if gaps := tr.openGaps(); gaps != 3 {
		t.Fatalf("openGaps = %d, want 3", gaps)
	}
	// Broker declares 2..4 unrecoverable: contig jumps, pending drains.
	if n := tr.forgive(9, 4); n != 3 {
		t.Fatalf("forgive gave up %d, want 3", n)
	}
	if gaps := tr.openGaps(); gaps != 0 {
		t.Fatalf("openGaps = %d after forgive", gaps)
	}
	if _, sent, _ := tr.cursor(); sent[9] != 5 {
		t.Fatalf("contig = %d after forgive+drain, want 5", sent[9])
	}
	// Forgiving an epoch never seen creates its track at the verdict.
	if n := tr.forgive(11, 30); n != 0 {
		t.Fatalf("unknown-epoch forgive gave up %d, want 0", n)
	}
	if _, sent, _ := tr.cursor(); sent[11] != 30 {
		t.Fatalf("unknown-epoch forgive: contig = %d, want 30", sent[11])
	}
}

// A hole is given up once, however many verdicts name it, and frames that
// arrived inside it are not counted as given up.
func TestSeqTrackerForgiveCountsOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arrived []uint64 // after seq 1, before the verdicts
		upto    []uint64 // one forgive per entry
		want    []uint64 // what each gave up
	}{
		{name: "one hole, two verdicts", upto: []uint64{10, 10}, want: []uint64{9, 0}},
		{name: "a later verdict gives up the rest", upto: []uint64{6, 10}, want: []uint64{5, 4}},
		{name: "partly filled out of order", arrived: []uint64{3, 4, 8, 12}, upto: []uint64{10, 10}, want: []uint64{6, 0}},
		{name: "filled up to the verdict", arrived: []uint64{2, 3, 4}, upto: []uint64{4}, want: []uint64{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &seqTracker{}
			tr.observe(9, 1, 10)
			for _, q := range tc.arrived {
				tr.observe(9, q, int64(10*q))
			}
			for i, upto := range tc.upto {
				if n := tr.forgive(9, upto); n != tc.want[i] {
					t.Fatalf("forgive #%d up to %d gave up %d, want %d", i+1, upto, n, tc.want[i])
				}
			}
		})
	}
}

func TestSeqTrackerEpochEvictionAndOverflow(t *testing.T) {
	tr := &seqTracker{}
	for e := uint64(1); e <= maxTrackedEpochs+2; e++ {
		tr.observe(e, 1, int64(e))
	}
	cur, _, _ := tr.cursor()
	if len(cur.Seen) != maxTrackedEpochs {
		t.Fatalf("tracked %d epochs, bound is %d", len(cur.Seen), maxTrackedEpochs)
	}
	if _, ok := cur.SeqFor(1); ok {
		t.Fatal("oldest epoch not evicted")
	}

	// Pending-set overflow resets contiguity to the newest sequence instead
	// of growing without bound.
	over := &seqTracker{}
	over.observe(3, 1, 1)
	for q := uint64(3); q < uint64(3+maxPendingSeqs); q++ {
		over.observe(3, q, int64(q)) // all leave hole at 2
	}
	over.observe(3, uint64(3+maxPendingSeqs+10), 1)
	if _, sent, _ := over.cursor(); sent[3] != uint64(3+maxPendingSeqs+10) {
		t.Fatalf("overflow reset contig to %d", sent[3])
	}
	if gaps := over.openGaps(); gaps != 0 {
		t.Fatalf("openGaps = %d after overflow reset", gaps)
	}

	// Unstamped frames (no replay rings) only advance the stamp fallback.
	raw := &seqTracker{}
	raw.observe(0, 0, 77)
	cur, sent, ok := raw.cursor()
	if !ok || cur.SinceStamp != 77 || len(sent) != 0 {
		t.Fatalf("unstamped observe: cur %+v, sent %v, ok %v", cur, sent, ok)
	}
}
