//go:build !linux

package transport

import (
	"context"
	"sync/atomic"
	"time"
)

// waker off Linux is a runtime timer per hold (see waker_linux.go for why
// Linux has its own): same contract, the platform's timer granularity; the
// caller's hold channel goes unused.
type waker struct{ wakes atomic.Uint64 }

func newWaker() (*waker, error) { return &waker{}, nil }
func (w *waker) close()         {}
func (w *waker) sleepUntil(ctx context.Context, at time.Time, _ chan struct{}) error {
	if d := time.Until(at); d > 0 { // an instant that has passed costs nothing
		w.wakes.Add(1)
		select {
		case <-time.After(d): // abandoned early, the timer still dies within d
		case <-ctx.Done():
		}
	}
	return ctx.Err()
}
