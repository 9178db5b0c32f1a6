package deliverycheck

import (
	"testing"
	"time"
)

// TestCheck runs one small history per verdict: each kind of violation, a
// loss, a duplicate, a phantom and an overreported gap, named with its
// subscriber, channel and key, and the histories that hold.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		history func(l *Ledger)
		want    string // "": the history holds
	}{
		{name: "exactly once", history: func(l *Ledger) {
			l.Subscribed("s", "c")
			l.Published("c", "a")
			l.Published("c", "b")
			l.Delivered("s", "c", "b")
			l.Delivered("s", "c", "a")
		}},
		{name: "published before the subscription is not owed", history: func(l *Ledger) {
			l.Published("c", "early")
			l.Subscribed("s", "c")
			l.Published("c", "a")
			l.Delivered("s", "c", "a")
		}},
		{name: "a reported gap accounts for the undelivered", history: func(l *Ledger) {
			l.Subscribed("s", "c")
			for _, k := range []string{"a", "b", "c", "d"} {
				l.Published("c", k)
			}
			l.Gap("s", "c", 1)
			l.Gap("s", "c", 2)
			l.Delivered("s", "c", "d")
		}},
		{name: "lost", history: func(l *Ledger) {
			l.Subscribed("s", "c")
			l.Published("c", "a")
			l.Published("c", "b")
			l.Delivered("s", "c", "a")
		}, want: `subscriber s, channel c: key "b" lost: 1 of 2 owed undelivered, 0 reported missed`},
		{name: "lost beyond a reported gap", history: func(l *Ledger) {
			l.Subscribed("s", "c")
			l.Published("c", "a")
			l.Published("c", "b")
			l.Gap("s", "c", 1)
		}, want: `subscriber s, channel c: key "a" lost: 2 of 2 owed undelivered, 1 reported missed`},
		{name: "duplicate", history: func(l *Ledger) {
			l.Subscribed("s", "c")
			l.Published("c", "a")
			l.Delivered("s", "c", "a")
			l.Delivered("s", "c", "a")
		}, want: `subscriber s, channel c: key "a" delivered 2 times`},
		{name: "phantom", history: func(l *Ledger) {
			l.Subscribed("s", "c")
			l.Published("other", "a")
			l.Delivered("s", "c", "a")
		}, want: `subscriber s, channel c: key "a" delivered, never published`},
		{name: "gap overreported", history: func(l *Ledger) {
			l.Subscribed("s", "c")
			l.Published("c", "a")
			l.Delivered("s", "c", "a")
			l.Gap("s", "c", 1)
		}, want: `subscriber s, channel c: 1 reported missed, 0 of 1 owed undelivered`},
		{name: "the first subscriber in order is judged first", history: func(l *Ledger) {
			l.Subscribed("s1", "c")
			l.Subscribed("s2", "c")
			l.Published("c", "a")
			l.Delivered("s2", "c", "a")
		}, want: `subscriber s1, channel c: key "a" lost: 1 of 1 owed undelivered, 0 reported missed`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := New()
			tc.history(l)
			got := ""
			if err := l.Check(); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("Check() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestWait: Wait returns nil once a late delivery lands, and times out on a
// loss with the loss.
func TestWait(t *testing.T) {
	l := New()
	msgs := make(chan string, 1)
	Drain(l, "s", "c", msgs, func(m string) string { return m })
	l.Published("c", "a")
	go func() {
		time.Sleep(30 * time.Millisecond)
		msgs <- "a"
	}()
	if err := l.Wait(5 * time.Second); err != nil {
		t.Fatalf("late delivery: %v", err)
	}
	l.Published("c", "b")
	want := `subscriber s, channel c: key "b" lost: 1 of 2 owed undelivered, 0 reported missed`
	if err := l.Wait(30 * time.Millisecond); err == nil || err.Error() != want {
		t.Fatalf("Wait() = %v, want %s", err, want)
	}
	close(msgs)
}
