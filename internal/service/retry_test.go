package service_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"byzex/internal/ident"
	"byzex/internal/service"
)

// lineServer speaks just enough of the line protocol to steer a load client:
// it answers the n-th request on each connection with reply(n), and hangs up
// where reply returns "".
func lineServer(t *testing.T, reply func(n int) string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer func() { _ = c.Close() }()
				br := bufio.NewReader(c)
				for n := 0; ; n++ {
					if _, err := br.ReadString('\n'); err != nil {
						return
					}
					line := reply(n)
					if line == "" {
						return
					}
					if _, err := fmt.Fprintln(c, line); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestLoadRetryHonorsCancel is the regression test for the load client's
// queue-full retry: the wait used to be a bare time.Sleep, so cancelling the
// run mid-backoff still blocked for the full RetryWait. With a 10s RetryWait
// the old code turns this test into a 10s hang; the ctx-aware wait returns
// within milliseconds of the cancel.
func TestLoadRetryHonorsCancel(t *testing.T) {
	addr := lineServer(t, func(int) string { return "ERR full" })
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)

	start := time.Now()
	stats, err := service.RunLoad(ctx, service.LoadConfig{
		Addr:      addr,
		Conns:     3,
		Requests:  1,
		RetryWait: 10 * time.Second,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("load run ignored cancellation for %v", elapsed)
	}
	if stats.Rejected == 0 {
		t.Fatal("no rejections recorded; the retry path was never exercised")
	}
	if stats.Submitted != 0 {
		t.Fatalf("%d submissions against an always-full server", stats.Submitted)
	}
}

// TestLoadDrillStopsOnCancel pins the drills' shape of RunLoad: with no
// request cap the loop runs until its context is cancelled, that cancel is
// not an error, and OnAck sees a count that grows by one per acknowledgement
// and ends at Submitted.
func TestLoadDrillStopsOnCancel(t *testing.T) {
	_, addr := startServer(t, service.Config{Template: template(31), Shards: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const target = 20
	last := 0
	stats, err := service.RunLoad(ctx, service.LoadConfig{
		Addr:     addr,
		Conns:    3,
		ValueFor: func(c, i int) ident.Value { return ident.Value((c + i) % 2) },
		OnAck: func(acked int) {
			if acked != last+1 {
				t.Errorf("ack count %d after %d", acked, last)
			}
			if last = acked; acked == target {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("cancelled drill loop: %v", err)
	}
	if stats.Submitted < target || stats.Submitted != last || len(stats.Latencies) != last {
		t.Fatalf("submitted %d, last ack %d, %d latencies", stats.Submitted, last, len(stats.Latencies))
	}
}

// TestLoadDrillServerGone: a server that hangs up before the drill's target
// ends the run with that error at once, not at the caller's deadline.
func TestLoadDrillServerGone(t *testing.T) {
	addr := lineServer(t, func(n int) string {
		if n == 4 {
			return ""
		}
		return fmt.Sprintf("OK %d %d 1 0 0 1 10 10", n, n)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	stats, err := service.RunLoad(ctx, service.LoadConfig{Addr: addr, Conns: 3})
	if err == nil || ctx.Err() != nil {
		t.Fatalf("got %v (ctx %v), want the hang-up", err, ctx.Err())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hang-up surfaced after %v", elapsed)
	}
	if stats.Submitted > 12 {
		t.Fatalf("%d acknowledgements from 3 connections of 4 each", stats.Submitted)
	}
}
