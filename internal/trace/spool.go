// Bounded trace spooling for long-running serving processes.
//
// The serving layer's original -trace wiring buffered every event in memory
// and wrote the file on drain — fine for a benchmark, fatal for a server
// under sustained load (the buffer grows without bound for as long as the
// process lives). A Spool keeps -trace alive for arbitrarily long runs by
// splitting the stream along the boundary the trace contract already draws
// (Kind.AdmissionScoped):
//
//   - Instance-scoped events (instance-start, per-instance internals,
//     instance-done) are written through to a JSONL writer as they arrive
//     and flushed to the underlying file at every instance-done, so the
//     on-disk trace is complete up to the last delivered instance and the
//     process retains nothing. These events arrive in instance-id order
//     (the service's delivery stage emits them), so the spooled file keeps
//     the byte-identical-at-any-shard-count property.
//
//   - Admission-scoped events (enqueue, reject, checkpoint) carry live
//     queue gauges and arrive at the offered-load rate — potentially
//     millions over a long run. They go to a fixed-capacity ring; overwrites
//     are counted, not buffered. Close appends the ring's surviving tail to
//     the file, newest window last, and the drop counter is exported
//     through the metrics endpoint (byzex_trace_spool_dropped_total).
//
// A Spool also folds every event — including the ones the ring later
// drops — into a live Summary and per-kind counters, so a metrics scrape
// can report trace totals without retaining or replaying the stream.
package trace

import (
	"io"
	"sync"
)

// Spool is the bounded sink behind `baserve -trace` (see the package-level
// spooling notes above). It is safe for concurrent Emit; snapshots for the
// metrics exporter are taken under the same mutex Emit holds, so a scrape
// observes a consistent cut of all counters.
type Spool struct {
	mu      sync.Mutex
	out     *JSONL
	ring    *Ring
	sum     Summary
	kinds   [NumKinds]uint64
	flushed uint64
	closed  bool
}

// NewSpool returns a spool writing instance-scoped events to w (JSONL,
// flushed at every instance-done) and retaining at most ringCap
// admission-scoped events (minimum 1).
func NewSpool(w io.Writer, ringCap int) *Spool {
	return &Spool{out: NewJSONL(w), ring: NewRing(ringCap)}
}

// Emit implements Sink. Admission-scoped events go to the ring (overwrites
// are counted as drops); everything else is written through to the JSONL
// output. Events emitted after Close are counted but not written.
func (sp *Spool) Emit(e Event) {
	sp.mu.Lock()
	sp.sum.Add(e)
	if k := int(e.Kind); k > 0 && k < NumKinds {
		sp.kinds[k]++
	}
	if sp.closed {
		sp.mu.Unlock()
		return
	}
	if e.Kind.AdmissionScoped() {
		sp.ring.Emit(e)
	} else {
		sp.out.Emit(e)
		sp.flushed++
		if e.Kind == KindInstanceDone {
			// Instance boundary: make the file durable up to here. The
			// JSONL error is sticky; Close surfaces it.
			_ = sp.out.Flush()
		}
	}
	sp.mu.Unlock()
}

// Close appends the ring's retained admission-scoped tail to the output
// (oldest surviving event first), flushes, and returns the first error any
// write encountered. Further Emits still count but write nothing.
func (sp *Spool) Close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return sp.out.Flush()
	}
	sp.closed = true
	for _, e := range sp.ring.Events() {
		sp.out.Emit(e)
		sp.flushed++
	}
	return sp.out.Flush()
}

// SpoolStats is one consistent snapshot of a spool's counters.
type SpoolStats struct {
	// Events counts every event emitted, whether flushed, retained or
	// dropped.
	Events uint64
	// Flushed counts events written through to the JSONL output.
	Flushed uint64
	// RingLen / RingCap gauge the admission-scoped ring; Dropped counts
	// ring overwrites — the spool-drop counter the metrics endpoint
	// exports.
	RingLen int
	RingCap int
	Dropped uint64
	// Kinds counts events per Kind (indexed by Kind value; index 0 unused).
	Kinds [NumKinds]uint64
	// Summary is the live aggregate of every event emitted, dropped or not
	// — the same totals Summarize would compute over the full stream.
	Summary Summary
}

// StatsInto snapshots the spool into out, reusing out's storage
// (out.Summary.PerPhase) so steady-state snapshots allocate nothing — the
// metrics scrape path's contract.
func (sp *Spool) StatsInto(out *SpoolStats) {
	perPhase := out.Summary.PerPhase
	sp.mu.Lock()
	out.Events = uint64(sp.sum.Events)
	out.Flushed = sp.flushed
	out.RingLen = sp.ring.Len()
	out.RingCap = sp.ring.Cap()
	out.Dropped = uint64(sp.ring.Dropped())
	out.Kinds = sp.kinds
	out.Summary = sp.sum
	out.Summary.PerPhase = append(perPhase[:0], sp.sum.PerPhase...)
	sp.mu.Unlock()
}

// Stats returns a fresh snapshot (allocates; scrape paths use StatsInto).
func (sp *Spool) Stats() SpoolStats {
	var out SpoolStats
	sp.StatsInto(&out)
	return out
}
