package workload

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/dynamoth/dynamoth/internal/broker"
)

// TestConnBenchSmall runs the multiplexed driver at toy scale against an
// in-process broker: every connection must establish, subscribe, and
// see stamped deliveries under churn.
func TestConnBenchSmall(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the load driver needs epoll")
	}
	b := broker.New(broker.Options{Name: "connbench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := broker.NewConnServer(b, broker.ServeOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs.Serve(ln) //nolint:errcheck
	}()
	defer func() {
		b.Close()
		ln.Close()
		<-done
	}()

	res, err := RunConnBench(ConnBenchOptions{
		Addr:        ln.Addr().String(),
		Conns:       200,
		Groups:      8,
		PublishRate: 200,
		Duration:    1500 * time.Millisecond,
		ChurnPerSec: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Achieved != 200 {
		t.Fatalf("achieved %d/200 connections (fd limit %d)", res.Achieved, res.FDLimit)
	}
	if res.Published == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.ChurnOps == 0 {
		t.Fatalf("no churn performed: %+v", res)
	}
	if res.DeliveryP99us <= 0 {
		t.Fatalf("no latency samples: %+v", res)
	}
	if res.ConnsPerSec <= 0 {
		t.Fatalf("bad connect rate: %+v", res)
	}
}

// TestConnBenchMultiSource exercises explicit source-IP binding
// (127.0.0.2/127.0.0.3 need no configuration on Linux loopback).
func TestConnBenchMultiSource(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the load driver needs epoll")
	}
	b := broker.New(broker.Options{Name: "connbench"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := broker.NewConnServer(b, broker.ServeOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs.Serve(ln) //nolint:errcheck
	}()
	defer func() {
		b.Close()
		ln.Close()
		<-done
	}()

	res, err := RunConnBench(ConnBenchOptions{
		Addr:        ln.Addr().String(),
		SourceIPs:   []string{"127.0.0.2", "127.0.0.3"},
		Conns:       50,
		Groups:      4,
		PublishRate: 100,
		Duration:    500 * time.Millisecond,
		ChurnPerSec: -1, // disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Achieved != 50 {
		t.Fatalf("achieved %d/50", res.Achieved)
	}
	if res.ChurnOps != 0 {
		t.Fatalf("churn ran while disabled: %+v", res)
	}
}
