//go:build linux

package transport

import (
	"context"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// waker is a mesh's link-delay clock: one timerfd, one goroutine parked in
// the runtime poller reading it, and a deadline-ordered queue of sleepers. A
// runtime timer cannot keep a 2 ms hold on an idle process — the scheduler
// sleeps inside epoll_wait, whose timeout is whole milliseconds (DESIGN.md
// §5.2) — whereas a timerfd expiry makes a descriptor readable, which ends
// that wait at once.
//
// A hold is released through a channel its caller owns and reuses: a mesh
// peer's, one per peer for the mesh's life, capacity 1. A peer has at most
// one hold at a time, so its channel is in the queue at most once, and a
// release is a send that never blocks.
//
// Contract: sleepUntil never returns nil before its instant (the hold is a
// lower bound on modeled latency) and returns early only with ctx's error or
// ErrMeshClosed.
type waker struct {
	f      *os.File      // the timerfd; os.NewFile registered it with the poller
	fd     int           // the same descriptor for timerfd_settime, valid while !closed
	done   chan struct{} // closed by close
	exited chan struct{} // closed when loop has returned
	wakes  atomic.Uint64 // expiries read off the descriptor

	mu     sync.Mutex
	queue  []sleeper // ascending by at, ties in arrival order
	closed bool
}

// sleeper is one queued hold; release sends one token on ch.
type sleeper struct {
	at time.Time
	ch chan struct{}
}

func newWaker() (*waker, error) {
	const clockMonotonic = 1 // the clock time.Now's monotonic reading follows
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK|TFD_CLOEXEC are the open(2) values
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	w := &waker{
		f: os.NewFile(fd, "timerfd"), fd: int(fd),
		done: make(chan struct{}), exited: make(chan struct{}),
	}
	go w.loop()
	return w, nil
}

// loop releases what is due on every expiry until close closes the descriptor.
func (w *waker) loop() {
	defer close(w.exited)
	var expiries [8]byte
	for {
		if _, err := w.f.Read(expiries[:]); err != nil {
			return
		}
		w.wakes.Add(1)
		w.mu.Lock()
		w.release(time.Now())
		w.mu.Unlock()
	}
}

// release lets go every sleeper due at now and arms the descriptor for the
// next one. Callers hold mu.
func (w *waker) release(now time.Time) {
	due := 0
	for due < len(w.queue) && !w.queue[due].at.After(now) {
		select {
		case w.queue[due].ch <- struct{}{}:
		default: // a token is already waiting: the channel was not drained
		}
		due++
	}
	w.queue = slices.Delete(w.queue, 0, due)
	if len(w.queue) > 0 && !w.closed {
		w.arm(w.queue[0].at.Sub(now))
	}
}

// arm sets the one-shot expiry d from now. d was measured from a clock
// reading taken before this call, so the expiry cannot precede the deadline.
// Callers hold mu, which is what keeps fd from being used after close.
func (w *waker) arm(d time.Duration) {
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(int64(max(d, 1))) // a zero value would disarm
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic(os.NewSyscallError("timerfd_settime", errno)) // open fd, valid spec: only a bug gets here
	}
}

// sleepUntil blocks until at, released through ch: an empty channel of
// capacity 1 that is in no other hold. An instant that has passed costs a
// clock reading: no queue insert, no timerfd_settime.
func (w *waker) sleepUntil(ctx context.Context, at time.Time, ch chan struct{}) error {
	if !at.After(time.Now()) {
		return ctx.Err()
	}
	if err := w.enqueue(at, ch); err != nil {
		return err
	}
	return w.wait(ctx, ch)
}

// enqueue registers a hold until at, re-arming the descriptor only when the
// new hold is the earliest.
func (w *waker) enqueue(at time.Time, ch chan struct{}) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrMeshClosed
	}
	i := len(w.queue)
	for i > 0 && w.queue[i-1].at.After(at) {
		i--
	}
	w.queue = slices.Insert(w.queue, i, sleeper{at, ch})
	if i == 0 {
		w.arm(time.Until(at))
	}
	return nil
}

// wait blocks until ch's hold is released, ctx ends or the waker closes. A
// hold abandoned early leaves the queue, or, when its release raced in
// (release sends under mu), has its token drained: ch is empty again either
// way, so its next hold cannot return on this one's release.
func (w *waker) wait(ctx context.Context, ch chan struct{}) error {
	var err error
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-w.done:
		err = ErrMeshClosed
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if i := slices.IndexFunc(w.queue, func(s sleeper) bool { return s.ch == ch }); i >= 0 {
		w.queue = slices.Delete(w.queue, i, i+1)
	} else {
		select {
		case <-ch:
		default:
		}
	}
	return err
}

// close releases every sleeper with ErrMeshClosed, closes the descriptor and
// returns once the loop goroutine has exited. Idempotent.
func (w *waker) close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.done)
		_ = w.f.Close() // unblocks loop's Read; nothing was written
	}
	w.mu.Unlock()
	<-w.exited
}
