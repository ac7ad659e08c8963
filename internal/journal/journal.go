// Package journal is the durability layer under the serving stack: a
// segmented, CRC-framed write-ahead log of admissions plus checkpoint
// records, and the recovery path that turns a journal directory back into a
// running service after a crash.
//
// The write path implements service.Journal and service.CompactingJournal:
// the service's sequencer calls Admit before an instance is handed to a
// shard, so every instance that ever executes has a durable record first
// (write-ahead, not write-behind); the delivery path calls MaybeCheckpoint,
// which writes a checkpoint at the delivered watermark when a record budget
// or timer says one is due (live compaction); and Checkpoint writes the
// final drain marker. Because the service derives each instance entirely
// from (template, id, values) — seed = template seed + id, packed value =
// PackValues(values) — an admission record is the complete recipe for
// re-executing its instance byte-identically; the journal never needs to
// store outcomes.
//
// On disk a journal is a directory of numbered segment files. Each segment
// opens with an 8-byte magic and holds length-prefixed records framed with a
// CRC-32C: a torn tail (the crash case) is detected by checksum and cut at
// the last whole record; corruption anywhere *before* the tail is refused
// loudly (ErrCorrupt) instead of silently replaying a damaged history. Every
// boot starts a fresh segment, so only the final segment of a generation can
// ever be torn. A checkpoint makes a segment garbage once its watermark
// clears every admission the segment holds; under live compaction an
// undelivered admission can live in a segment *older* than the checkpoint's
// own, so the writer keeps a per-segment max-admission-id ledger (segMax)
// and pruning deletes exactly the older segments whose max id is below the
// checkpointed watermark — bounding directory growth by the replay window
// (checkpoint budget + in-flight work) instead of a full generation of
// traffic.
//
// Durability is a knob, not a policy: Fsync 0 syncs every record before
// Admit returns (an admitted value survives any crash), a positive Fsync
// groups commits on that interval (bounded loss window, an order of
// magnitude more admissions per second — BENCH_007 quantifies the gap).
// Checkpoints always sync regardless of the knob.
package journal

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"

	"byzex/internal/core"
	"byzex/internal/service"
	"byzex/internal/wire"
)

// Typed failures callers program against.
var (
	// ErrCorrupt reports a journal whose non-tail contents fail validation
	// (bad magic, bad CRC before the last record, unknown record kind, a gap
	// in the admission id sequence). Recovery refuses to guess.
	ErrCorrupt = errors.New("journal: corrupt journal")
	// ErrClosed rejects writes through a closed Writer.
	ErrClosed = errors.New("journal: writer closed")
	// ErrMismatch reports a replay attempted under a different template or
	// fault plan than the journal was written with — re-executing would not
	// reproduce the original instances, so recovery stops.
	ErrMismatch = errors.New("journal: journal does not match the serving configuration")
)

// segMagic opens every segment file: "BXJL" plus a format version. Bump the
// version byte on any incompatible record-layout change.
var segMagic = [8]byte{'B', 'X', 'J', 'L', 0, 0, 0, 1}

const (
	// DefaultSegmentBytes rotates segments at 4 MiB.
	DefaultSegmentBytes = 4 << 20
	// minSegmentBytes keeps rotation sane under test-sized configs.
	minSegmentBytes = 512
)

// Options parameterizes Open.
type Options struct {
	// Template is the per-instance run template the owning service uses.
	// The journal stores only its fingerprint (TemplateHash) and the fault
	// plan's digest; both are re-verified before any replay.
	Template core.Config
	// Fsync is the group-commit interval: 0 syncs every record before Admit
	// returns; a positive duration batches syncs on that cadence, trading a
	// bounded loss window for throughput. Checkpoints always sync.
	Fsync time.Duration
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default DefaultSegmentBytes, minimum 512).
	SegmentBytes int64
	// CheckpointEvery makes MaybeCheckpoint due once this many admissions
	// have been journaled since the last checkpoint (live compaction's
	// record budget). Zero disables the budget trigger.
	CheckpointEvery int
	// CheckpointInterval makes MaybeCheckpoint due once this much time has
	// passed since the last checkpoint (live compaction's timer). Zero
	// disables the timer trigger. Either trigger still requires the
	// delivered watermark to have advanced — a checkpoint that marks
	// nothing newly delivered would prune nothing.
	CheckpointInterval time.Duration
}

// ParseFsync parses the -fsync flag surface: "always" means sync every
// record (0), anything else must be a positive Go duration giving the
// group-commit interval.
func ParseFsync(s string) (time.Duration, error) {
	if s == "" || s == "always" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("journal: bad fsync policy %q: %v", s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("journal: fsync interval %v must be positive (or \"always\")", d)
	}
	return d, nil
}

// Stats is a snapshot of the writer's counters, exported on /metrics by
// obs.JournalCollector.
type Stats struct {
	// Records / Checkpoints count the records written to the segment files
	// by kind; Bytes is the total framed bytes written (headers included).
	// Under group commit an admission counts once the flusher has written it
	// out, so Records never runs ahead of what a crash would leave on disk.
	Records     uint64
	Checkpoints uint64
	Bytes       uint64
	// Syncs counts fsync calls; under group commit, Records/Syncs is the
	// realized commit batch size.
	Syncs uint64
	// Segments is the live segment-file count; Pruned counts segment files
	// deleted by checkpoints over the writer's lifetime.
	Segments uint64
	Pruned   uint64
	// Replayed counts instances re-executed from this journal at the last
	// recovery (set once by the recovery path, then constant).
	Replayed uint64
	// CheckpointFailures counts checkpoint writes that returned an error —
	// including the drain checkpoint, whose error the service swallows to
	// finish delivery. A non-zero value means the last generation's final
	// state may not be marked delivered and a restart will replay from the
	// last good checkpoint.
	CheckpointFailures uint64
	// PruneFailures counts segment deletions (or prune scans) that failed;
	// failed prunes are retried on the group-commit flusher tick and at the
	// next checkpoint, so a transient failure strands a segment for at most
	// one flush interval, not a full checkpoint budget window.
	PruneFailures uint64
}

// TemplateHash returns a stable 64-bit fingerprint of the run-template
// fields that determine instance execution: protocol identity, system size
// and fault bound, transmitter, base seed, and the concrete types of the
// signature scheme and adversary. Value is excluded (it is replaced per
// batch) and the fault plan is fingerprinted separately (faultnet's
// Plan.Digest), so a journal can distinguish "different template" from
// "different fault scenario" at recovery.
func TemplateHash(cfg core.Config) uint64 {
	h := fnv.New64a()
	name := ""
	if cfg.Protocol != nil {
		name = cfg.Protocol.Name()
	}
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%T|%T",
		name, cfg.N, cfg.T, cfg.Transmitter, cfg.Seed, cfg.Scheme, cfg.Adversary)
	return h.Sum64()
}

// Writer implements both durability hooks: the mandatory write-ahead one and
// the optional live-compaction one the service discovers by type assertion.
var (
	_ service.Journal           = (*Writer)(nil)
	_ service.CompactingJournal = (*Writer)(nil)
)

// Writer is the append side of a journal: it implements service.Journal, so
// wiring durability into a service is one assignment (Config.Journal).
// Admit and Checkpoint are called from the service's single sequencer /
// close path and MaybeCheckpoint from its delivery goroutine, but Writer
// serializes internally anyway so a flusher goroutine (group commit) can
// share the file safely.
type Writer struct {
	dir      string
	opts     Options
	tmplHash uint64
	digest   uint64

	mu      sync.Mutex
	f       *os.File
	seg     uint64 // current segment index
	segSize int64  // bytes written to the current segment
	pending []byte // buffered frames awaiting flush (group commit)
	admits  uint64 // admission records among the pending frames
	enc     *wire.Writer
	stats   Stats
	err     error // sticky: first write/sync failure poisons the writer
	closed  bool

	// Live-compaction state. segMax maps each segment to the highest
	// admission id journaled in it — the prune-safety ledger: a segment may
	// only be deleted once a checkpoint watermark clears every admission it
	// holds (see pruneLocked). sinceCkpt / lastCkptAt drive MaybeCheckpoint's
	// record budget and timer; ckptWatermark is the last checkpointed
	// watermark (pruning clears strictly below it). prunePending marks a
	// failed prune for retry on the flusher tick.
	segMax        map[uint64]uint64
	sinceCkpt     int
	lastCkptAt    time.Time
	ckptWatermark uint64
	prunePending  bool
	removeFile    func(string) error // os.Remove, swappable by tests

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open scans dir (creating it if needed), recovers its state, and starts a
// fresh segment for this generation's appends. The returned Recovery holds
// the watermark, the checkpointed stats and the pending admissions the
// caller must replay (see Recovery.Replay) before serving live traffic; the
// returned Writer is ready to be handed to service.Config.Journal.
func Open(dir string, opts Options) (*Writer, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %v", err)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < minSegmentBytes {
		opts.SegmentBytes = minSegmentBytes
	}
	rec, err := scan(dir, true)
	if err != nil {
		return nil, nil, err
	}
	w := &Writer{
		dir:        dir,
		opts:       opts,
		tmplHash:   TemplateHash(opts.Template),
		digest:     opts.Template.Faults.Digest(),
		enc:        wire.NewWriter(256),
		segMax:     make(map[uint64]uint64, len(rec.segMax)+1),
		lastCkptAt: time.Now(),
		removeFile: os.Remove,
	}
	// Seed the prune-safety ledger with the prior generations' per-segment
	// max admission ids: a recovered-but-undelivered admission can live in a
	// segment older than any future checkpoint's own, and that segment must
	// survive compaction until the admission is delivered.
	for seg, id := range rec.segMax {
		w.segMax[seg] = id
	}
	if rec.Checkpoint != nil {
		w.ckptWatermark = rec.Checkpoint.Watermark
	}
	w.stats.Segments = uint64(len(rec.segments))
	if err := w.rotate(rec.nextSegment()); err != nil {
		return nil, nil, err
	}
	if opts.Fsync > 0 {
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flushLoop(opts.Fsync)
	}
	return w, rec, nil
}

// rotate closes the current segment (flushing and syncing it) and opens the
// segment numbered seg. Callers hold mu or own the writer exclusively.
func (w *Writer) rotate(seg uint64) error {
	if w.f != nil {
		if err := w.flushLocked(true); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			w.err = err
			return err
		}
	}
	name := filepath.Join(w.dir, segmentName(seg))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		w.err = err
		return fmt.Errorf("journal: %v", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		w.err = err
		_ = f.Close()
		return fmt.Errorf("journal: %v", err)
	}
	w.f = f
	w.seg = seg
	w.segSize = int64(len(segMagic))
	w.stats.Segments++
	w.stats.Bytes += uint64(len(segMagic))
	return nil
}

// Admit journals one admission (service.Journal). Under Fsync 0 the record
// is on disk when Admit returns; under group commit it is buffered and the
// flusher syncs it within one interval. An error vetoes the instance — the
// service fails the batch instead of running work a crash would lose.
func (w *Writer) Admit(inst service.Instance) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	encodeAdmission(w.enc, Admission{
		ID:           inst.ID,
		TemplateHash: w.tmplHash,
		FaultDigest:  w.digest,
		Values:       inst.Values,
	})
	if err := w.append(w.enc.Bytes()); err != nil {
		return err
	}
	// append rotates before buffering, so the record lands in w.seg: record
	// the segment's highest admission id for the prune-safety ledger.
	if cur, ok := w.segMax[w.seg]; !ok || inst.ID > cur {
		w.segMax[w.seg] = inst.ID
	}
	w.admits++
	w.sinceCkpt++
	if w.opts.Fsync == 0 {
		return w.flushLocked(true)
	}
	return nil
}

// Checkpoint journals a checkpoint marker (service.Journal), syncs it, and
// prunes every older segment whose admissions the watermark clears. The
// service calls it unconditionally during drain; MaybeCheckpoint is the
// budgeted mid-run form. Failures are counted (Stats.CheckpointFailures) as
// well as returned, because the drain path swallows the error to finish
// delivery.
func (w *Writer) Checkpoint(watermark uint64, stats service.Stats) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.checkpointLocked(watermark, stats)
}

// MaybeCheckpoint writes a checkpoint at the delivered watermark when one is
// due — CheckpointEvery admissions journaled since the last checkpoint, or
// CheckpointInterval elapsed — and the watermark has advanced past the last
// checkpointed one (service.CompactingJournal). The service drives it from
// its delivery path, so the watermark is exactly the lowest undelivered
// admission id: a mid-run checkpoint never marks an in-flight admission
// delivered. It returns whether a checkpoint was attempted; a false return
// with nil error means nothing was due.
func (w *Writer) MaybeCheckpoint(watermark uint64, stats service.Stats) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.CheckpointEvery <= 0 && w.opts.CheckpointInterval <= 0 {
		return false, nil
	}
	if watermark <= w.ckptWatermark {
		return false, nil // nothing newly delivered: the checkpoint would prune nothing
	}
	due := w.opts.CheckpointEvery > 0 && w.sinceCkpt >= w.opts.CheckpointEvery
	if !due && w.opts.CheckpointInterval > 0 && time.Since(w.lastCkptAt) >= w.opts.CheckpointInterval {
		due = true
	}
	if !due {
		return false, nil
	}
	return true, w.checkpointLocked(watermark, stats)
}

// checkpointLocked is the shared checkpoint body: append + sync the record,
// advance the compaction cursors, prune. Callers hold mu. Every failure is
// counted in Stats.CheckpointFailures, including writes refused because the
// writer is already closed or poisoned.
func (w *Writer) checkpointLocked(watermark uint64, stats service.Stats) error {
	if err := w.writeCheckpointLocked(watermark, stats); err != nil {
		w.stats.CheckpointFailures++
		return err
	}
	return nil
}

func (w *Writer) writeCheckpointLocked(watermark uint64, stats service.Stats) error {
	if w.closed {
		return ErrClosed
	}
	if w.err != nil {
		return w.err
	}
	encodeCheckpoint(w.enc, Checkpoint{Watermark: watermark, Stats: stats})
	if err := w.append(w.enc.Bytes()); err != nil {
		return err
	}
	if err := w.flushLocked(true); err != nil {
		return err
	}
	w.stats.Checkpoints++
	w.sinceCkpt = 0
	w.lastCkptAt = time.Now()
	if watermark > w.ckptWatermark {
		w.ckptWatermark = watermark
	}
	w.pruneLocked()
	return nil
}

// append frames body into the pending buffer, rotating first if the current
// segment is full. The fullness check counts buffered-but-unflushed bytes —
// they land in the current segment (rotate flushes them there first) — so a
// group-commit journal honors SegmentBytes instead of overshooting by a full
// flush interval's traffic; a single record larger than SegmentBytes still
// goes into an otherwise-empty segment rather than rotating forever. Callers
// hold mu.
func (w *Writer) append(body []byte) error {
	need := int64(8 + len(body))
	buffered := w.segSize + int64(len(w.pending))
	if buffered+need > w.opts.SegmentBytes && buffered > int64(len(segMagic)) {
		if err := w.rotate(w.seg + 1); err != nil {
			return err
		}
	}
	w.pending = appendRecord(w.pending, body)
	return nil
}

// flushLocked writes the pending buffer to the current segment and, when
// sync is set, fsyncs it. Callers hold mu.
func (w *Writer) flushLocked(sync bool) error {
	if w.err != nil {
		return w.err
	}
	if len(w.pending) > 0 {
		n, err := w.f.Write(w.pending)
		w.segSize += int64(n)
		w.stats.Bytes += uint64(n)
		if err != nil {
			w.err = err
			return err
		}
		w.pending = w.pending[:0]
		w.stats.Records += w.admits
		w.admits = 0
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			w.err = err
			return err
		}
		w.stats.Syncs++
	}
	return nil
}

// flushLoop is the group-commit flusher: one fsync per interval covering
// every record buffered since the last.
func (w *Writer) flushLoop(interval time.Duration) {
	defer close(w.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				if len(w.pending) > 0 {
					_ = w.flushLocked(true) // sticky w.err surfaces on the next Admit/Close
				}
				if w.prunePending {
					// Retry a failed prune here instead of waiting a full
					// checkpoint budget window for the next pruneLocked.
					w.pruneLocked()
				}
			}
			w.mu.Unlock()
		}
	}
}

// pruneLocked deletes every segment file older than the current one whose
// admissions are all cleared by the last checkpointed watermark: a segment
// survives while it holds any admission id >= ckptWatermark (segMax), because
// recovery still needs those records — under live compaction an undelivered
// admission can sit in a segment *older* than the checkpoint's own. Segments
// with no recorded admissions (checkpoint-only, or fully superseded) are
// always prunable; the current segment never is (it holds the newest
// checkpoint). Callers hold mu; failures are counted and retried on the
// group-commit flusher tick and at the next checkpoint.
func (w *Writer) pruneLocked() {
	w.prunePending = false
	segs, err := listSegments(w.dir)
	if err != nil {
		w.stats.PruneFailures++
		w.prunePending = true
		return
	}
	for _, s := range segs {
		if s >= w.seg {
			continue
		}
		if maxID, ok := w.segMax[s]; ok && maxID >= w.ckptWatermark {
			continue // still holds an admission recovery would need
		}
		if err := w.removeFile(filepath.Join(w.dir, segmentName(s))); err != nil {
			w.stats.PruneFailures++
			w.prunePending = true
			continue
		}
		delete(w.segMax, s)
		w.stats.Pruned++
		if w.stats.Segments > 0 {
			w.stats.Segments--
		}
	}
}

// SetReplayed records the recovery replay count on the stats surface.
func (w *Writer) SetReplayed(n uint64) {
	w.mu.Lock()
	w.stats.Replayed = n
	w.mu.Unlock()
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats {
	var s Stats
	w.StatsInto(&s)
	return s
}

// StatsInto snapshots the counters into out without allocating.
func (w *Writer) StatsInto(out *Stats) {
	w.mu.Lock()
	*out = w.stats
	w.mu.Unlock()
}

// Err returns the writer's sticky error, nil while healthy. The service
// swallows Checkpoint errors during drain (delivery must finish); callers
// check Err (or Close) to learn the journal's true final state.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes, syncs and closes the current segment. Safe to call twice.
// The returned error is the sticky write/sync error if any occurred over the
// writer's lifetime.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	ferr := w.flushLocked(true)
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && w.err == nil {
			w.err = cerr
		}
	}
	stop := w.flushStop
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.flushDone
	}
	if ferr != nil {
		return ferr
	}
	return w.Err()
}
