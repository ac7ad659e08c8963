package runner_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"byzex/internal/runner"
)

// TestMapOrdering: results come back indexed by submission order at every
// parallelism level, identical to the serial loop.
func TestMapOrdering(t *testing.T) {
	ctx := context.Background()
	want := make([]int, 100)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got, err := runner.Map(ctx, runner.New(workers), len(want), func(ctx context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
	// The empty sweep (experiments.jobs with no steps) is no work, no error.
	if got, err := runner.Map(ctx, runner.New(2), 0, func(context.Context, int) (int, error) { panic("called") }); err != nil || len(got) != 0 {
		t.Fatalf("empty Map: %v, %v", got, err)
	}
}

// TestMapLowestIndexError: when several jobs fail, the reported error is the
// one with the lowest index — the same error the serial loop would hit first.
func TestMapLowestIndexError(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		_, err := runner.Map(ctx, runner.New(workers), 16, func(ctx context.Context, i int) (int, error) {
			if i >= 3 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: got %v, want job 3's error", workers, err)
		}
	}
}

// TestMapErrorStopsScheduling: after a failure no new indices start (modulo
// the jobs already in flight).
func TestMapErrorStopsScheduling(t *testing.T) {
	const n = 1000
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := runner.Map(context.Background(), runner.New(2), n, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if s := started.Load(); s == n {
		t.Fatalf("all %d jobs started despite early failure", n)
	}
}

// TestMapCancellation: cancelling the context mid-sweep returns promptly with
// ctx.Err() instead of draining the remaining jobs.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var ran atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := runner.Map(ctx, runner.New(4), 1000, func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return i, nil
		})
		done <- err
	}()
	// Let a few jobs start, then cancel while the rest are still queued.
	for ran.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return promptly after cancellation")
	}
	if r := ran.Load(); r >= 1000 {
		t.Fatalf("sweep ran to completion (%d jobs) despite cancellation", r)
	}
	close(release)
}

// TestMapBoundsConcurrency: no more than Workers() jobs are ever in flight.
func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := runner.Map(context.Background(), runner.New(workers), 64, func(ctx context.Context, i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", p, workers)
	}
}

// TestNewDefaults: values below one select GOMAXPROCS.
func TestNewDefaults(t *testing.T) {
	if w := runner.New(0).Workers(); w < 1 {
		t.Fatalf("New(0).Workers() = %d", w)
	}
	if w := runner.New(-5).Workers(); w < 1 {
		t.Fatalf("New(-5).Workers() = %d", w)
	}
	if w := runner.New(7).Workers(); w != 7 {
		t.Fatalf("New(7).Workers() = %d, want 7", w)
	}
}
