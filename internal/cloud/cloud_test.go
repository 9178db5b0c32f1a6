package cloud

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/clock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSpawnReleaseLifecycle(t *testing.T) {
	sim := NewSimulator(Config{BootDelay: time.Millisecond})
	id, err := sim.Spawn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if id != "pub-x1" {
		t.Fatalf("id=%q", id)
	}
	if err := sim.Release(id); err != nil {
		t.Fatal(err)
	}
	if err := sim.Release(id); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double release err=%v, want ErrNotRunning", err)
	}
	if err := sim.Release("nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("unknown release err=%v", err)
	}
}

func TestCrashStopsBillingAndRelease(t *testing.T) {
	clk := clock.NewManual(epoch)
	sim := NewSimulator(Config{BootDelay: time.Second, Clock: clk})
	done := make(chan string, 1)
	go func() {
		id, _ := sim.Spawn(context.Background())
		done <- id
	}()
	time.Sleep(10 * time.Millisecond)
	clk.Advance(time.Second)
	id := <-done

	clk.Advance(30 * time.Minute)
	if err := sim.Crash(id); err != nil {
		t.Fatal(err)
	}
	// InstanceHours must stop accruing at crash time.
	clk.Advance(2 * time.Hour)
	if got := sim.InstanceHours(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("InstanceHours after crash=%f want 0.5", got)
	}
	// Releasing (or re-crashing) a crashed instance is ErrNotRunning, not a
	// silent success and not "unknown".
	if err := sim.Release(id); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("release after crash err=%v, want ErrNotRunning", err)
	}
	if err := sim.Crash(id); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("double crash err=%v, want ErrNotRunning", err)
	}
	if err := sim.Crash("nope"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("unknown crash err=%v", err)
	}
}

func TestSpawnBootDelayOnClock(t *testing.T) {
	clk := clock.NewManual(epoch)
	sim := NewSimulator(Config{BootDelay: 10 * time.Second, Clock: clk})
	done := make(chan string, 1)
	go func() {
		id, err := sim.Spawn(context.Background())
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- id
	}()
	select {
	case v := <-done:
		t.Fatalf("spawn completed before boot delay: %v", v)
	case <-time.After(20 * time.Millisecond):
	}
	clk.Advance(11 * time.Second)
	select {
	case v := <-done:
		if v != "pub-x1" {
			t.Fatalf("spawn result %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("spawn never completed after boot delay")
	}
}

func TestSpawnCancelled(t *testing.T) {
	clk := clock.NewManual(epoch)
	sim := NewSimulator(Config{BootDelay: time.Hour, Clock: clk})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sim.Spawn(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled spawn never returned")
	}
	clk.Advance(2 * time.Hour)
	if got := sim.InstanceHours(); got != 0 {
		t.Fatalf("cancelled spawn left an instance billing: %f h", got)
	}
}

func TestInstanceHoursStopAtRelease(t *testing.T) {
	clk := clock.NewManual(epoch)
	sim := NewSimulator(Config{BootDelay: time.Second, Clock: clk})
	done := make(chan string, 1)
	go func() {
		id, _ := sim.Spawn(context.Background())
		done <- id
	}()
	time.Sleep(10 * time.Millisecond)
	clk.Advance(time.Second)
	id := <-done

	clk.Advance(30 * time.Minute)
	if got := sim.InstanceHours(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("InstanceHours=%f want 0.5", got)
	}
	if err := sim.Release(id); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour) // stopped instances accrue nothing further
	if got := sim.InstanceHours(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("InstanceHours after release=%f want 0.5", got)
	}
}
