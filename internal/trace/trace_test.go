package trace

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/obs"
)

func testNow() func() time.Time {
	base := time.Unix(1_700_000_000, 0)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestTraceRecordAndRead(t *testing.T) {
	r := NewRecorder(16)
	r.SetNow(testNow())
	r.Record(KindTrigger, 2, "", "high-load:3 moves", 1_500_000, 0)
	r.Record(KindPlanPush, 2, "pub1", "", int64(3*time.Millisecond), 0)
	r.Record(KindReplay, 2, "game", "switch", 4, 0)

	evs := r.Events(0)
	if len(evs) != 3 {
		t.Fatalf("Events(0) = %d events, want 3", len(evs))
	}
	if evs[0].Kind != KindTrigger || evs[0].Detail != "high-load:3 moves" || evs[0].Plan != 2 {
		t.Fatalf("first event mismatch: %+v", evs[0])
	}
	if evs[1].Subject != "pub1" {
		t.Fatalf("subject not interned round-trip: %+v", evs[1])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("timestamps not monotone: %d then %d", evs[i-1].Time, evs[i].Time)
		}
	}
	if got := r.Count(KindPlanPush); got != 1 {
		t.Fatalf("Count(KindPlanPush) = %d, want 1", got)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	r := NewRecorder(8)
	r.SetNow(testNow())
	const total = 20
	for i := 0; i < total; i++ {
		r.Record(KindMigrate, uint64(i+1), "ch", "switch", 1, 0)
	}
	evs := r.Events(0)
	if len(evs) != 8 {
		t.Fatalf("after wraparound got %d events, want capacity 8", len(evs))
	}
	// Only the newest capacity events survive: seqs 13..20.
	if evs[0].Seq != total-8+1 || evs[len(evs)-1].Seq != total {
		t.Fatalf("wraparound kept seqs [%d..%d], want [13..20]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	if r.Count(KindMigrate) != total {
		t.Fatalf("lifetime count %d, want %d (overwritten events still counted)", r.Count(KindMigrate), total)
	}
}

func TestTraceSinceCursorPagination(t *testing.T) {
	r := NewRecorder(64)
	r.SetNow(testNow())
	for i := 0; i < 10; i++ {
		r.Record(KindSwitchSend, 3, "game", "", 0, 0)
	}
	var got []Event
	var cursor uint64
	pages := 0
	for {
		page := r.Events(cursor)
		if len(page) == 0 {
			break
		}
		pages++
		got = append(got, page...)
		cursor = page[len(page)-1].Seq
		if pages > 20 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(got) != 10 {
		t.Fatalf("paginated read returned %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if extra := r.Events(got[len(got)-1].Seq); len(extra) != 0 {
		t.Fatalf("Events past the tail returned %d events, want 0", len(extra))
	}
}

func TestTraceConcurrentWriters(t *testing.T) {
	r := NewRecorder(256)
	const writers = 8
	const perWriter = 500
	subjects := []string{"pub1", "pub2", "pub3", "game", "chat"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent reader exercising the seqlock validation path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, ev := range r.Events(0) {
					if ev.Kind >= kindCount {
						t.Errorf("torn read escaped validation: kind %d", ev.Kind)
						return
					}
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(KindMigrate, uint64(w+1), subjects[i%len(subjects)], "switch", 1, 0)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	if got := r.Count(KindMigrate); got != writers*perWriter {
		t.Fatalf("lifetime count %d, want %d", got, writers*perWriter)
	}
	if got := r.Seq(); got != writers*perWriter {
		t.Fatalf("final seq %d, want %d", got, writers*perWriter)
	}
	evs := r.Events(0)
	if len(evs) == 0 || len(evs) > 256 {
		t.Fatalf("ring holds %d events, want (0,256]", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seqs not increasing after concurrent writes: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestTraceRecordZeroAllocs(t *testing.T) {
	r := NewRecorder(1024)
	// Warm the intern table so the steady-state path is measured.
	r.Record(KindSwitchSend, 1, "pub1", "reason", 1, 2)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindSwitchSend, 1, "pub1", "reason", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestTraceNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if seq := r.Record(KindTrigger, 1, "x", "y", 0, 0); seq != 0 {
		t.Fatalf("nil Record returned seq %d", seq)
	}
	sp := r.StartSpan(KindRepair, 1, "pub1")
	if seq := sp.End("done", 0); seq != 0 {
		t.Fatalf("nil span End returned seq %d", seq)
	}
	if evs := r.Events(0); evs != nil {
		t.Fatalf("nil Events returned %v", evs)
	}
	if tl := r.Timelines(); tl != nil {
		t.Fatalf("nil Timelines returned %v", tl)
	}
	r.SetNow(time.Now)
	r.SetLogger(slog.Default())
	r.RegisterMetrics(obs.NewRegistry(), "balancer")
}

func TestTraceSpan(t *testing.T) {
	r := NewRecorder(16)
	now := time.Unix(1_700_000_000, 0)
	r.SetNow(func() time.Time { return now })
	sp := r.StartSpan(KindPlanCompute, 0, "")
	now = now.Add(7 * time.Millisecond)
	sp.EndAt(5, "high-load:2 moves", 3)
	evs := r.Events(0)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != KindPlanCompute || ev.Plan != 5 || ev.Aux != 3 {
		t.Fatalf("span event mismatch: %+v", ev)
	}
	if ev.Value != int64(7*time.Millisecond) {
		t.Fatalf("span duration %v, want 7ms", time.Duration(ev.Value))
	}
}

func TestTraceInternOverflow(t *testing.T) {
	r := NewRecorder(16)
	r.SetNow(testNow())
	big := make([]byte, 8)
	for i := 0; i < maxInterned+10; i++ {
		for j := range big {
			big[j] = byte('a' + (i>>uint(j*4))&0xf)
		}
		r.Record(KindLoad, 1, string(big), "", 0, 0)
	}
	// Recorder stays functional; overflowed subjects degrade to the ellipsis.
	evs := r.Events(0)
	if len(evs) == 0 {
		t.Fatal("no events after intern overflow")
	}
	last := evs[len(evs)-1]
	if last.Subject != "…" {
		t.Fatalf("overflowed subject = %q, want ellipsis", last.Subject)
	}
}

func TestTraceLoggerTwin(t *testing.T) {
	r := NewRecorder(16)
	r.SetNow(testNow())
	var buf bytes.Buffer
	r.SetLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	r.Record(KindDetect, 4, "pub2", "probe-misses:3", 0, 0)
	out := buf.String()
	for _, want := range []string{"reconfig.detect", "component=balancer", "subject=pub2", "probe-misses:3", "plan=4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log twin missing %q in %q", want, out)
		}
	}
	// Below-level events are skipped without formatting cost.
	buf.Reset()
	r.SetLogger(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelError})))
	r.Record(KindSwitchSend, 4, "game", "", 0, 0)
	if buf.Len() != 0 {
		t.Fatalf("debug event leaked through error-level logger: %q", buf.String())
	}
}

func TestTraceRegisterMetrics(t *testing.T) {
	r := NewRecorder(32)
	r.SetNow(testNow())
	r.Record(KindTrigger, 2, "", "spawn:1", 0, 0)
	r.Record(KindReplay, 2, "game", "switch", 7, 0)
	r.Record(KindPlanApply, 2, "pub1", "", 0, 0)
	sp := r.StartSpan(KindRepair, 3, "pub1")
	sp.End("evacuate", 5)
	reg := obs.NewRegistry()
	r.RegisterMetrics(reg, "balancer")
	text := reg.String()
	checks := map[string]string{
		"dynamoth_reconfig_triggers_total": "dynamoth_reconfig_triggers_total 1",
		"dynamoth_reconfig_repair_seconds": "dynamoth_reconfig_repair_seconds_count 1",
	}
	for name, want := range checks {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q for %s:\n%s", want, name, text)
		}
	}
	// Only the registry owner's kinds: no dispatcher, client or broker
	// family on the balancer's registry.
	for _, absent := range []string{"dynamoth_reconfig_plan_applies", "dynamoth_replay_", "dynamoth_conn_"} {
		if strings.Contains(text, absent) {
			t.Fatalf("balancer exposition carries %q:\n%s", absent, text)
		}
	}
	if _, err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

func TestTraceKindNames(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if KindByName(name) != k {
			t.Fatalf("KindByName(%q) = %v, want %v", name, KindByName(name), k)
		}
		if k.Component() == "" || k.Component() == "unknown" {
			t.Fatalf("kind %s has no component", name)
		}
	}
}

func TestTraceComponentLogger(t *testing.T) {
	if Component(nil, "server") != DiscardLogger() {
		t.Fatal("nil base should return the discard logger")
	}
	var buf bytes.Buffer
	lg := Component(slog.New(slog.NewTextHandler(&buf, nil)), "balancer")
	lg.Info("hello")
	if !strings.Contains(buf.String(), "component=balancer") {
		t.Fatalf("component tag missing: %q", buf.String())
	}
	if DiscardLogger().Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discard logger should be disabled at every level")
	}
}

func TestTraceParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel should reject unknown levels")
	}
}

func BenchmarkTraceRecord(b *testing.B) {
	r := NewRecorder(4096)
	r.Record(KindSwitchSend, 1, "pub1", "", 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(KindSwitchSend, 1, "pub1", "", int64(i), 0)
	}
}

func BenchmarkTraceRecordParallel(b *testing.B) {
	r := NewRecorder(4096)
	r.Record(KindMigrate, 1, "game", "switch", 0, 0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(KindMigrate, 1, "game", "switch", 1, 0)
		}
	})
}
