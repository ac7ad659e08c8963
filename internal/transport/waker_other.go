//go:build !linux

package transport

import (
	"context"
	"sync/atomic"
	"time"
)

// waker off Linux is a runtime timer per hold (see waker_linux.go for why
// Linux has its own): same contract, the platform's timer granularity.
type waker struct{ wakes atomic.Uint64 }

func newWaker() (*waker, error) { return &waker{}, nil }
func (w *waker) close()         {}
func (w *waker) sleep(ctx context.Context, d time.Duration) error {
	w.wakes.Add(1)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
