// Shards is the streaming executor: a fixed pool of workers with stable shard
// ids, so callers can pin per-worker state (a substrate handle, a reusable
// trace buffer) to the worker rather than the job, with results delivered in
// submission order.

package runner

import (
	"errors"
	"sync"
)

// ErrShardsClosed indicates a Submit after Close.
var ErrShardsClosed = errors.New("runner: shards closed")

// Shards executes jobs on a fixed set of identified workers. Each worker is
// a dedicated goroutine with a stable shard id in [0, workers) (see NewShards); exec runs
// on exactly one worker at a time per shard, so per-shard state passed to
// exec needs no locking. Results are delivered strictly in submission order
// through a reorder buffer: the caller observes exactly the outcomes of the
// serial loop no matter which shard ran which job or in what order they
// finished.
//
// Submit blocks once every worker is busy and the one-slot handoff channel
// is full — the pool's capacity propagates upstream as backpressure. It is
// intended for a single producer goroutine (the serving layer's admission
// sequencer); concurrent producers would race for submission order, which is
// the thing Shards exists to pin down. Close must not race a blocked Submit.
type Shards[J, R any] struct {
	exec    func(shard int, j J) R
	deliver func(seq uint64, r R)
	jobs    chan shardJob[J]
	wg      sync.WaitGroup

	mu      sync.Mutex
	nextSub uint64
	nextDel uint64
	pending map[uint64]R
	closed  bool
}

type shardJob[J any] struct {
	seq uint64
	j   J
}

// NewShards starts `workers` dedicated worker goroutines (values below one
// select one worker). exec runs a job on the worker whose shard id it is
// handed; deliver is invoked exactly once per job, in submission order, from
// whichever worker completes the next deliverable sequence. Invocations of
// deliver never overlap, so it needs no internal locking, but it must not
// call back into Submit or Close.
func NewShards[J, R any](workers int, exec func(shard int, j J) R, deliver func(seq uint64, r R)) *Shards[J, R] {
	if workers < 1 {
		workers = 1
	}
	s := &Shards[J, R]{
		exec:    exec,
		deliver: deliver,
		jobs:    make(chan shardJob[J], 1),
		pending: make(map[uint64]R),
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker(w)
	}
	return s
}

// Submit hands j to the next free worker and returns its sequence number.
// One job may park in the handoff channel while every worker is busy; beyond
// that Submit blocks (backpressure). After Close it returns ErrShardsClosed
// without running the job.
func (s *Shards[J, R]) Submit(j J) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrShardsClosed
	}
	seq := s.nextSub
	s.nextSub++
	s.mu.Unlock()
	s.jobs <- shardJob[J]{seq: seq, j: j}
	return seq, nil
}

// Close stops accepting jobs and blocks until every submitted job has
// executed and been delivered. It is idempotent, but must not be called
// while a Submit is in flight (single-producer contract).
func (s *Shards[J, R]) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.jobs)
	s.wg.Wait()
}

// worker is the loop of one shard: take a job, run it with this shard's id,
// flush the reorder buffer.
func (s *Shards[J, R]) worker(shard int) {
	defer s.wg.Done()
	for job := range s.jobs {
		r := s.exec(shard, job.j)
		s.complete(job.seq, r)
	}
}

// complete parks a finished job and delivers every consecutive result that
// is now deliverable, preserving submission order.
func (s *Shards[J, R]) complete(seq uint64, r R) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[seq] = r
	for {
		v, ok := s.pending[s.nextDel]
		if !ok {
			return
		}
		delete(s.pending, s.nextDel)
		s.deliver(s.nextDel, v)
		s.nextDel++
	}
}
