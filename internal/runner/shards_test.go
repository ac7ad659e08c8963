package runner_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"byzex/internal/runner"
)

// TestShardsDeliversInSubmissionOrder scrambles completion order with random
// per-job sleeps and checks delivery still follows submission order, with
// every job delivered exactly once.
func TestShardsDeliversInSubmissionOrder(t *testing.T) {
	const jobs = 200
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, jobs)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	var (
		mu        sync.Mutex
		delivered []int
	)
	s := runner.NewShards(4,
		func(_ int, j int) int {
			time.Sleep(delays[j])
			return j * 10
		},
		func(seq uint64, r int) {
			mu.Lock()
			delivered = append(delivered, r)
			mu.Unlock()
			if int(seq)*10 != r {
				t.Errorf("seq %d delivered %d", seq, r)
			}
		})
	for i := 0; i < jobs; i++ {
		seq, err := s.Submit(i)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("submission %d got seq %d", i, seq)
		}
	}
	s.Close()
	if len(delivered) != jobs {
		t.Fatalf("delivered %d of %d", len(delivered), jobs)
	}
	for i, r := range delivered {
		if r != i*10 {
			t.Fatalf("position %d delivered %d, want %d", i, r, i*10)
		}
	}
}

// TestShardsIdentity checks the per-shard execution contract: shard ids stay
// in range, and jobs on the same shard never overlap (per-shard state needs
// no locking).
func TestShardsIdentity(t *testing.T) {
	const workers, jobs = 3, 60
	var (
		mu      sync.Mutex
		running [workers]bool
		counts  [workers]int
	)
	s := runner.NewShards(workers,
		func(shard int, j int) struct{} {
			if shard < 0 || shard >= workers {
				t.Errorf("shard id %d out of range", shard)
				return struct{}{}
			}
			mu.Lock()
			if running[shard] {
				t.Errorf("shard %d ran two jobs at once", shard)
			}
			running[shard] = true
			counts[shard]++
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			mu.Lock()
			running[shard] = false
			mu.Unlock()
			return struct{}{}
		},
		func(uint64, struct{}) {})
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != jobs {
		t.Fatalf("shards ran %d jobs, want %d", total, jobs)
	}
}

// TestShardsBackpressure: with every worker blocked, Submit must block
// rather than buffer unboundedly, and unblock once a worker frees up.
func TestShardsBackpressure(t *testing.T) {
	release := make(chan struct{})
	delivered := 0 // written by the delivery stage only; read after Close
	s := runner.NewShards(2,
		func(int, int) int { <-release; return 0 },
		func(uint64, int) { delivered++ })
	// Two jobs occupy both workers; a third Submit parks in the handoff
	// channel. The fourth must block.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan struct{})
	go func() {
		if _, err := s.Submit(3); err != nil {
			t.Error(err)
		}
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("Submit did not block with all workers busy")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit never unblocked")
	}
	s.Close()
	if delivered != 4 {
		t.Fatalf("Close returned with %d of 4 jobs delivered", delivered)
	}
}

// TestShardsSubmitAfterClose pins the typed rejection.
func TestShardsSubmitAfterClose(t *testing.T) {
	s := runner.NewShards(1, func(int, int) int { return 0 }, func(uint64, int) {})
	s.Close()
	if _, err := s.Submit(1); err != runner.ErrShardsClosed {
		t.Fatalf("got %v, want ErrShardsClosed", err)
	}
	s.Close() // idempotent
}
