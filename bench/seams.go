package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/service"
)

// The two public seams the harness wraps to see inside a served request
// without touching the program: service.Substrate (one RunFunc call per
// instance, on its shard) and service.Journal (one Admit per instance, on
// the sequencer). The wrappers note when each call started and ended, keyed
// by instance id; the harness turns the notes into child spans once the ack
// tells it which request the instance belonged to.

// seamTimes is what the wrappers saw of one instance.
type seamTimes struct {
	admit0, admit1 time.Time
	run0, run1     time.Time
}

// seams is the shared notebook. While off, the wrappers call straight
// through, so the same stack serves the untraced comparison window.
type seams struct {
	on atomic.Bool

	mu sync.Mutex
	m  map[uint64]*seamTimes
}

func newSeams() *seams { return &seams{m: map[uint64]*seamTimes{}} }

// recording reports whether spans are being taken; a nil notebook (an
// untraced run) never records.
func (s *seams) recording() bool { return s != nil && s.on.Load() }

func (s *seams) note(id uint64, fill func(*seamTimes)) {
	s.mu.Lock()
	st := s.m[id]
	if st == nil {
		st = &seamTimes{}
		s.m[id] = st
	}
	fill(st)
	s.mu.Unlock()
}

// peek returns the notes for instance id (nil when the wrappers saw nothing
// of it); every value of a batch reads the same notes, because every one of
// them waited for that admit and that run.
func (s *seams) peek(id uint64) *seamTimes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[id]
}

// drop forgets instance id once its last ack has been turned into spans.
func (s *seams) drop(id uint64) {
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// take is peek then drop, for instances that serve a single value.
func (s *seams) take(id uint64) *seamTimes {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.m[id]
	delete(s.m, id)
	return st
}

// emit records the instance-level child spans under parent.
func (st *seamTimes) emit(rec *recorder, trace, parent uint64) {
	if st == nil {
		return
	}
	if !st.admit0.IsZero() {
		rec.add(trace, parent, "journal.admit", st.admit0, st.admit1)
	}
	if !st.run0.IsZero() {
		rec.add(trace, parent, "shard.run", st.run0, st.run1)
	}
}

// tracedSubstrate wraps a service.Substrate.
type tracedSubstrate struct {
	inner    service.Substrate
	seams    *seams
	baseSeed int64 // instance id = cfg.Seed - baseSeed
}

func (t tracedSubstrate) Open(shard int) service.RunFunc {
	run := t.inner.Open(shard)
	return func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
		if !t.seams.recording() {
			return run(ctx, cfg)
		}
		t0 := time.Now()
		out, err := run(ctx, cfg)
		t1 := time.Now()
		t.seams.note(uint64(cfg.Seed-t.baseSeed), func(st *seamTimes) { st.run0, st.run1 = t0, t1 })
		return out, err
	}
}

func (t tracedSubstrate) Close(shard int) { t.inner.Close(shard) }

// admitted is one Admit call as the journal wrapper saw it during replay.
type admitted struct {
	id     uint64
	values []ident.Value
}

// watchedJournal wraps a service.CompactingJournal (journal.Writer). Besides
// the span notes it logs every admission made while logging is set — the
// recovery check that each parked admission is replayed exactly once under
// its original id reads that log.
type watchedJournal struct {
	inner service.CompactingJournal
	seams *seams // nil when the run is not traced

	logging atomic.Bool
	mu      sync.Mutex
	log     []admitted
}

var _ service.CompactingJournal = (*watchedJournal)(nil)

func (w *watchedJournal) Admit(inst service.Instance) error {
	if w.logging.Load() {
		w.mu.Lock()
		w.log = append(w.log, admitted{id: inst.ID, values: append([]ident.Value(nil), inst.Values...)})
		w.mu.Unlock()
	}
	if !w.seams.recording() {
		return w.inner.Admit(inst)
	}
	t0 := time.Now()
	err := w.inner.Admit(inst)
	t1 := time.Now()
	w.seams.note(inst.ID, func(st *seamTimes) { st.admit0, st.admit1 = t0, t1 })
	return err
}

func (w *watchedJournal) Checkpoint(watermark uint64, stats service.Stats) error {
	return w.inner.Checkpoint(watermark, stats)
}

func (w *watchedJournal) MaybeCheckpoint(watermark uint64, stats service.Stats) (bool, error) {
	return w.inner.MaybeCheckpoint(watermark, stats)
}
