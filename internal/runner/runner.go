// Package runner provides a bounded worker pool for executing independent
// simulation runs in parallel. The paper's evaluation is a grid of
// independent worst-case executions (protocol × adversary × parameters ×
// seed); every cell is deterministic on its own, so the only requirements on
// the executor are that concurrency is bounded, cancellation propagates
// promptly, and results come back in submission order so that parallel and
// serial sweeps produce byte-identical tables.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds how many jobs execute concurrently. The zero value is not
// usable; construct pools with New. A Pool carries no per-run state and may
// be shared by any number of Map/Run calls.
type Pool struct {
	workers int
}

// New returns a pool that runs at most `workers` jobs at once. Values below
// one select runtime.GOMAXPROCS(0): the runs are CPU-bound, so there is
// nothing to gain from oversubscribing the scheduler.
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Map executes fn(ctx, i) for every i in [0, n) on the pool and returns the
// results ordered by index — the caller observes exactly the output of the
// serial loop regardless of scheduling. If any invocation fails, the error
// with the lowest index is returned and no further indices are started
// (already-started jobs run to completion). Cancelling ctx stops scheduling
// immediately and is also surfaced if no job error takes precedence.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: identical semantics, no goroutines.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	var failed atomic.Bool
	indices := make(chan int)
	var wg sync.WaitGroup
	go func() {
		defer close(indices)
		for i := 0; i < n; i++ {
			if failed.Load() {
				return
			}
			select {
			case indices <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indices {
				v, err := fn(ctx, i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
