//go:build linux

package transport

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"byzex/internal/ident"
)

func testWaker(t *testing.T) *waker {
	t.Helper()
	w, err := newWaker()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	return w
}

// waitQueued returns once n holds sit in w's queue.
func waitQueued(w *waker, n int) {
	for queued := 0; queued < n; runtime.Gosched() {
		w.mu.Lock()
		queued = len(w.queue)
		w.mu.Unlock()
	}
}

// TestWakerNeverEarly is the contract the fault matrix and the modeled
// latency rest on: whatever mix of instants is held for, from however many
// goroutines — a fifth of them already past when asked — none returns before
// its own. Each goroutine is a peer, with one hold channel for all its holds,
// and every fourth hold is abandoned by a context that ends at the hold's own
// instant, so its release and its abandonment race; the next hold on the
// channel must still wait for its own instant. The race is then forced: a
// release lands in the channel while the hold's context is already done, so
// wait's select may take either, and the hold after it must not return on
// that token.
func TestWakerNeverEarly(t *testing.T) {
	w := testWaker(t)
	ctx := context.Background()
	const sleepers, draws = 8, 125 // 1000 holds until -0.75 to +3 ms from now
	var wg sync.WaitGroup
	for g := 0; g < sleepers; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			hold := make(chan struct{}, 1)
			for i := 0; i < draws; i++ {
				at := time.Now().Add(time.Duration(rng.Intn(3750)-750) * time.Microsecond)
				if i%4 == 3 {
					abandon, cancel := context.WithDeadline(ctx, at)
					err := w.sleepUntil(abandon, at, hold)
					cancel()
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("abandoned sleepUntil(%v): %v", at, err)
						return
					}
					continue
				}
				if err := w.sleepUntil(ctx, at, hold); err != nil {
					t.Errorf("sleepUntil(%v): %v", at, err)
					return
				}
				if early := time.Until(at); early > 0 {
					t.Errorf("sleepUntil returned %v before its instant", early)
				}
			}
		}(rand.New(rand.NewSource(int64(g) + 1)))
	}
	wg.Wait()
	if w.wakes.Load() == 0 {
		t.Error("1000 holds ended without one timerfd expiry")
	}

	hold := make(chan struct{}, 1)
	done, cancel := context.WithCancel(ctx)
	cancel()
	for i := 0; i < 64; i++ {
		if err := w.enqueue(time.Now().Add(time.Hour), hold); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		w.release(time.Now().Add(2 * time.Hour))
		w.mu.Unlock()
		if err := w.wait(done, hold); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("raced hold: %v", err)
		}
		at := time.Now().Add(300 * time.Microsecond)
		if err := w.sleepUntil(ctx, at, hold); err != nil {
			t.Fatal(err)
		}
		if early := time.Until(at); early > 0 {
			t.Fatalf("the hold after a raced abandonment returned %v before its instant", early)
		}
	}
}

// TestWakerPastInstantFree: a hold whose instant has passed — a peer whose
// last frame came in after its sender's instant + Δ — returns without a
// channel, a queue insert or a timerfd_settime (which would show as an
// expiry), and still reports a cancelled context.
func TestWakerPastInstantFree(t *testing.T) {
	w := testWaker(t)
	ctx, cancel := context.WithCancel(context.Background())
	past, hold := time.Now(), make(chan struct{}, 1)
	if n := testing.AllocsPerRun(100, func() {
		if err := w.sleepUntil(ctx, past, hold); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a past instant allocates %.0f objects", n)
	}
	w.mu.Lock()
	queued := len(w.queue)
	w.mu.Unlock()
	if wakes := w.wakes.Load(); queued != 0 || wakes != 0 {
		t.Errorf("past instants left %d holds queued and armed %d expiries", queued, wakes)
	}
	cancel()
	if err := w.sleepUntil(ctx, past, hold); !errors.Is(err, context.Canceled) {
		t.Errorf("past instant under a cancelled context: %v", err)
	}
}

// released reports whether a hold was let go: its channel holds the token,
// or, for a goroutine's done channel, is closed.
func released(ch chan struct{}) bool {
	if cap(ch) > 0 {
		return len(ch) == 1
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestWakerDeadlineOrder registers holds out of order, hours away so the
// descriptor never fires — the last through sleepUntil, the call the mesh
// makes — and steps release through chosen instants: each instant releases
// exactly the holds due by then, earliest first.
func TestWakerDeadlineOrder(t *testing.T) {
	w := testWaker(t)
	base := time.Now().Add(time.Hour)
	at := []time.Duration{3 * time.Hour, 1 * time.Hour, 2 * time.Hour, 1 * time.Hour}
	chs := make([]chan struct{}, len(at)+1)
	for i, d := range at {
		chs[i] = make(chan struct{}, 1)
		if err := w.enqueue(base.Add(d), chs[i]); err != nil {
			t.Fatal(err)
		}
	}
	slept := make(chan struct{})
	chs[len(at)] = slept
	go func() {
		defer close(slept)
		if err := w.sleepUntil(context.Background(), base.Add(90*time.Minute), make(chan struct{}, 1)); err != nil {
			t.Errorf("sleepUntil: %v", err)
		}
	}()
	waitQueued(w, len(chs))
	w.mu.Lock()
	defer w.mu.Unlock()
	if q := w.queue; q[0].ch != chs[1] || q[1].ch != chs[3] || !q[2].at.Equal(base.Add(90*time.Minute)) || q[3].ch != chs[2] || q[4].ch != chs[0] {
		t.Fatal("queue is not in deadline order with ties in arrival order")
	}
	for step, tc := range []struct {
		now  time.Duration
		want []bool
	}{
		{59 * time.Minute, []bool{false, false, false, false, false}},
		{1 * time.Hour, []bool{false, true, false, true, false}},
		{90 * time.Minute, []bool{false, true, false, true, true}},
		{2*time.Hour + time.Minute, []bool{false, true, true, true, true}},
		{4 * time.Hour, []bool{true, true, true, true, true}},
	} {
		w.release(base.Add(tc.now))
		if tc.want[len(at)] {
			<-slept // released holds return without taking mu
		}
		for i, ch := range chs {
			if released(ch) != tc.want[i] {
				t.Fatalf("step %d: hold %d released=%v, want %v", step, i, !tc.want[i], tc.want[i])
			}
		}
	}
	if len(w.queue) != 0 {
		t.Fatalf("%d holds left queued", len(w.queue))
	}
}

// TestWakerCancelAndClose: a cancelled context releases its own sleeper and
// nobody else's; close releases the rest with ErrMeshClosed, ends the loop
// goroutine (close returns only then) and refuses later holds.
func TestWakerCancelAndClose(t *testing.T) {
	w := testWaker(t)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]chan error, 3)
	for i := range errs {
		ch := make(chan struct{}, 1)
		if err := w.enqueue(time.Now().Add(time.Hour), ch); err != nil {
			t.Fatal(err)
		}
		c := context.Background()
		if i == 1 {
			c = ctx
		}
		errs[i] = make(chan error, 1)
		go func(out chan error) { out <- w.wait(c, ch) }(errs[i])
	}
	cancel()
	if err := <-errs[1]; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleeper got %v", err)
	}
	w.mu.Lock()
	queued := len(w.queue)
	w.mu.Unlock()
	if queued != 2 {
		t.Fatalf("after one cancel: %d holds queued, want the other 2", queued)
	}
	w.close()
	for _, i := range []int{0, 2} {
		if err := <-errs[i]; !errors.Is(err, ErrMeshClosed) {
			t.Fatalf("sleeper %d got %v, want ErrMeshClosed", i, err)
		}
	}
	if err := w.sleepUntil(context.Background(), time.Now().Add(time.Hour), make(chan struct{}, 1)); !errors.Is(err, ErrMeshClosed) {
		t.Fatalf("sleepUntil on a closed waker: %v", err)
	}
}

// TestLinkDelayHoldCancel: a context cancelled while every peer sits in a
// link-delay hold ends the run at once with context.Canceled — not when the
// delay or the phase timeout runs out. The holds are seen in the waker's
// queue, so the cancel lands in the middle of them by construction.
func TestLinkDelayHoldCancel(t *testing.T) {
	m, err := NewMesh(context.Background(), 3, Net{PhaseTimeout: time.Minute, LinkDelay: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(ctx, meshConfig(ident.V1, 1))
		done <- err
	}()
	waitQueued(m.waker, 3) // phase 1's barrier closed at all three
	cancel()
	cancelled := time.Now()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if took := time.Since(cancelled); took > 50*time.Millisecond {
		t.Fatalf("the holds outlived their cancelled context by %v", took)
	}
	m.waker.mu.Lock()
	defer m.waker.mu.Unlock()
	if len(m.waker.queue) != 0 {
		t.Fatalf("%d abandoned holds still queued", len(m.waker.queue))
	}
}

// timerfds counts this process's open timerfd descriptors.
func timerfds(t *testing.T) (timerfd, all int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip(err)
	}
	for _, e := range ents {
		if link, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && link == "anon_inode:[timerfd]" {
			timerfd++
		}
	}
	return timerfd, len(ents)
}

// TestMeshWakerLifetime: a mesh with a link delay owns exactly one timerfd
// and one more goroutine, a mesh without one opens neither, and 200
// build/close cycles leave descriptors and goroutines where they started.
func TestMeshWakerLifetime(t *testing.T) {
	ctx := context.Background()
	tfd0, fds0 := timerfds(t)
	goroutines0 := runtime.NumGoroutine()

	plain, err := NewMesh(ctx, 3, Net{})
	if err != nil {
		t.Fatal(err)
	}
	if tfd, _ := timerfds(t); plain.waker != nil || tfd != tfd0 {
		t.Fatalf("mesh without a link delay: waker %v, %d timerfds open (started with %d)", plain.waker, tfd, tfd0)
	}
	plain.Close()

	for i := 0; i < 200; i++ {
		m, err := NewMesh(ctx, 3, Net{LinkDelay: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if tfd, _ := timerfds(t); m.waker == nil || tfd != tfd0+1 {
				t.Fatalf("mesh with a link delay: waker %v, %d timerfds open (started with %d)", m.waker, tfd, tfd0)
			}
			if _, err := m.Run(ctx, meshConfig(1, 1)); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
	}
	if tfd, fds := timerfds(t); tfd != tfd0 || fds != fds0 {
		t.Fatalf("after 200 cycles: %d timerfds, %d descriptors (started with %d and %d)", tfd, fds, tfd0, fds0)
	}
	// Close waits for every goroutine's last statement, not for its exit.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, started with %d", runtime.NumGoroutine(), goroutines0)
		}
	}
}
