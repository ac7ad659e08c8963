// Package trace is the structured execution-tracing layer: a low-overhead
// stream of logical-time events (phase boundaries, sends, deliveries,
// signature-cache hits and misses, decisions, adversary corruption and
// rushing) emitted by the simulation engine, the TCP transport and the
// signature layer, and consumed by pluggable sinks.
//
// The paper's results are all about counting what happens inside an
// execution; a trace makes the counting inspectable. Every event carries the
// phase it belongs to and the processors involved — never a wall-clock
// timestamp — so traces of a deterministic run are themselves deterministic:
// the same configuration and seed produce byte-identical JSONL at any
// parallelism level.
//
// Overhead contract: with no sink configured the producers pay one nil check
// per potential event and allocate nothing. Event is a flat value struct
// (no pointers, no slices), so emitting through the Sink interface does not
// allocate either; Nop and Ring sinks are allocation-free per event.
package trace

import (
	"context"

	"byzex/internal/ident"
)

// Kind classifies an event.
type Kind uint8

// Event kinds, in rough lifecycle order of a run.
const (
	// KindCorrupt marks a processor as corrupted by the adversary (one
	// event per member of the faulty set, in ascending id order, before
	// phase 1).
	KindCorrupt Kind = iota + 1
	// KindPhaseStart / KindPhaseEnd bracket one lock-step phase.
	KindPhaseStart
	KindPhaseEnd
	// KindSend is a message accepted by the substrate. Phase is the sending
	// phase; Sigs/Signers/Bytes mirror the envelope's signature and payload
	// accounting; Flag marks a faulty sender.
	KindSend
	// KindOmit is a send suppressed by an adversary's send filter (the
	// split-brain and starvation wrappers): the Byzantine processor ran
	// protocol logic that wanted to send, and the adversary withheld it.
	KindOmit
	// KindDeliver is one envelope handed to a processor's Step. Phase is
	// the delivery phase (the sending phase plus one).
	KindDeliver
	// KindVerifyHit / KindVerifyMiss report signature-chain verification:
	// Sigs links accepted from the verified-prefix cache, or Sigs links
	// paying real cryptography. Phase is 0 (the signature layer does not
	// know phases).
	KindVerifyHit
	KindVerifyMiss
	// KindRush is a rushing adversary peek: the faulty processor From saw
	// Sigs envelopes of the current phase's correct traffic before acting.
	KindRush
	// KindDecide is a processor's final output: Value and Flag (decided).
	KindDecide
	// KindEnqueue / KindReject / KindInstanceStart / KindInstanceDone are
	// serving-layer events (package service); none of them carries a phase
	// (Phase is 0 — instances have internal phases of their own). Field
	// reuse, in the package's established style:
	//
	//   enqueue:        Sigs = admission-queue depth after the enqueue,
	//                   Value = the submitted value.
	//   reject:         Sigs = queue depth at rejection, Flag = true when
	//                   rejected because the service is draining (false:
	//                   queue full).
	//   instance-start: Signers = instance id, Sigs = batch size,
	//                   Value = the packed batch value the instance agrees on.
	//   instance-done:  Signers = instance id, Sigs = batch size,
	//                   Bytes = messages sent by correct processors during
	//                   the instance (the amortization numerator),
	//                   Value = decided value, Flag = agreement reached.
	//
	// The instance-scoped events (instance-start, the instance's internal
	// events when per-instance tracing is on, instance-done) are emitted by
	// the service's delivery stage in strict instance-id order, so that part
	// of a merged trace is byte-identical at any shard count. The
	// admission-scoped events (enqueue, reject, checkpoint) carry live queue
	// gauges and interleave by wall time — they describe the offered load,
	// not the deterministic executions (Kind.AdmissionScoped).
	KindEnqueue
	KindReject
	KindInstanceStart
	KindInstanceDone
	// KindFaultDrop / KindFaultDelay / KindFaultDup / KindFaultReorder
	// report a fault-plan action (package faultnet) applied to the frame
	// From sent to To during sending phase Phase; fault-delay carries the
	// hold duration in Sigs. The events are derived from the plan — a pure
	// function of the seed — not from observed arrivals, so fault traces
	// stay byte-identical across replays and can be checked against
	// Plan.ExpectedCounters exactly.
	KindFaultDrop
	KindFaultDelay
	KindFaultDup
	KindFaultReorder
	// KindFaultCrash reports processor From halting at the start of phase
	// Phase under a crash-at-phase-k rule.
	KindFaultCrash
	// KindReplay reports one journaled admission re-submitted during crash
	// recovery: Signers = the instance id being replayed, Sigs = the batch
	// size, Flag = true when the replayed instance completed successfully.
	// Replay runs before live traffic is admitted, so these events are
	// deterministic given the journal contents.
	KindReplay
	// KindCheckpoint reports a journal checkpoint attempt — mid-run (live
	// compaction, from the delivery path) or on drain: Signers = the
	// delivered watermark persisted, Sigs = instances completed at that
	// point, Flag = true when the checkpoint write succeeded.
	// Admission-scoped: checkpoints record live progress.
	KindCheckpoint
	// KindSearchEval reports one candidate evaluation by the adversary
	// search (package search): Signers = the evaluation index, Sigs = the
	// measured objective cost (0 when infeasible), Flag = true when the
	// candidate was feasible. The search is deterministic in its seed, so
	// these events are part of the byte-identical replay contract.
	KindSearchEval
	// KindSearchBest reports a new search incumbent: Signers = the
	// evaluation index that produced it, Sigs = the improved cost.
	KindSearchBest
	// KindSearchViolation reports a candidate that broke an agreement
	// condition: Signers = the evaluation index. For correct protocols this
	// event is fatal to the gap gate; for strawmen it is the expected find.
	KindSearchViolation
)

// NumKinds bounds the Kind space: valid kinds are 1 <= k < NumKinds. Fixed
// per-kind counter arrays (Spool, the metrics exporter) are sized by it.
const NumKinds = int(KindSearchViolation) + 1

// kindNames maps kinds to their wire names (see jsonl.go).
var kindNames = map[Kind]string{
	KindCorrupt:         "corrupt",
	KindPhaseStart:      "phase-start",
	KindPhaseEnd:        "phase-end",
	KindSend:            "send",
	KindOmit:            "omit",
	KindDeliver:         "deliver",
	KindVerifyHit:       "verify-hit",
	KindVerifyMiss:      "verify-miss",
	KindRush:            "rush",
	KindDecide:          "decide",
	KindEnqueue:         "enqueue",
	KindReject:          "reject",
	KindInstanceStart:   "instance-start",
	KindInstanceDone:    "instance-done",
	KindFaultDrop:       "fault-drop",
	KindFaultDelay:      "fault-delay",
	KindFaultDup:        "fault-dup",
	KindFaultReorder:    "fault-reorder",
	KindFaultCrash:      "fault-crash",
	KindReplay:          "replay",
	KindCheckpoint:      "checkpoint",
	KindSearchEval:      "search-eval",
	KindSearchBest:      "search-best",
	KindSearchViolation: "search-violation",
}

// AdmissionScoped reports whether k is a serving-layer admission-side event
// (enqueue, reject, checkpoint). Those events carry live queue gauges and
// interleave by wall time, so they are excluded from the byte-identical
// merged-trace contract the instance-scoped events keep at any shard count.
func (k Kind) AdmissionScoped() bool {
	return k == KindEnqueue || k == KindReject || k == KindCheckpoint
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Event is one structured trace record. It is a flat value type by design:
// emitting one never allocates, and events can be compared with ==.
type Event struct {
	// Kind classifies the event.
	Kind Kind
	// Phase is the logical phase the event belongs to (0 when unknown).
	Phase int
	// From is the acting or sending processor (ident.None when n/a).
	From ident.ProcID
	// To is the recipient (ident.None when n/a).
	To ident.ProcID
	// Sigs counts signature links (send/omit: SigTotal; verify: links;
	// rush: envelopes peeked).
	Sigs int
	// Signers counts distinct signer identities on a send.
	Signers int
	// Bytes is the payload size of a send.
	Bytes int
	// Value is the decided value on a KindDecide event.
	Value ident.Value
	// Flag is event-specific: faulty sender (send), decided (decide).
	Flag bool
}

// Sink consumes events. Emit is called from the goroutine executing the
// traced run; a sink used by a single run needs no locking (the in-memory
// engine is single-threaded, and a TCP mesh records each peer into buckets of
// its own that the engine replays once the peers have joined). Emit must not retain interior
// state of the event beyond the call — trivially true since Event is flat.
type Sink interface {
	Emit(Event)
}

// Nop is the explicit no-op sink: tracing machinery enabled, output
// discarded. Producers treat a nil Sink the same way; Nop exists so the
// "sink wired but silent" path can be benchmarked separately from the nil
// fast path.
type Nop struct{}

// Emit implements Sink.
func (Nop) Emit(Event) {}

// Buffer is an unbounded in-memory sink that retains every event in emission
// order. It is the merge unit for parallel sweeps: each worker writes its
// own Buffer, and the buffers are drained into the final sink in submission
// order, keeping merged traces deterministic. Not safe for concurrent use.
type Buffer struct {
	events []Event
}

// NewBuffer returns an empty Buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Emit implements Sink.
func (b *Buffer) Emit(e Event) { b.events = append(b.events, e) }

// Events returns the recorded events in emission order. The slice is the
// buffer's backing storage; callers must not mutate it while emitting.
func (b *Buffer) Events() []Event { return b.events }

// Len returns how many events the buffer holds.
func (b *Buffer) Len() int { return len(b.events) }

// DrainTo emits every buffered event into dst in order and empties the
// buffer.
func (b *Buffer) DrainTo(dst Sink) {
	for _, e := range b.events {
		dst.Emit(e)
	}
	b.events = b.events[:0]
}

// Reset empties the buffer, keeping the backing storage — the serving
// layer's shard workers reuse one buffer per shard across instances.
func (b *Buffer) Reset() { b.events = b.events[:0] }

// Ring is a fixed-capacity sink keeping the most recent events. Emitting
// into a full ring overwrites the oldest event and never allocates — the
// sink of choice for always-on tracing of long runs and for tests that only
// need the tail.
type Ring struct {
	buf     []Event
	next    int
	wrapped bool
	dropped int
}

// NewRing returns a ring holding at most capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	if r.wrapped {
		r.dropped++
	}
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.wrapped = true
	}
}

// Events returns the retained events, oldest first, as a fresh slice.
func (r *Ring) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dropped returns how many events were overwritten.
func (r *Ring) Dropped() int { return r.dropped }

// Len returns how many events the ring currently retains.
func (r *Ring) Len() int {
	if r.wrapped {
		return len(r.buf)
	}
	return r.next
}

// Cap returns the ring's fixed capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// ctxKey keys the sink carried by a context.
type ctxKey struct{}

// NewContext returns a context carrying s. core.Run and transport.RunCluster
// fall back to the context sink when their config carries none, which lets
// orchestration layers (the experiment sweeps, the lower-bound attacks)
// inject per-worker sinks without threading a field through every call.
func NewContext(ctx context.Context, s Sink) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the sink carried by ctx, or nil.
func FromContext(ctx context.Context) Sink {
	s, _ := ctx.Value(ctxKey{}).(Sink)
	return s
}
