package journal_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/service"
	"byzex/internal/sim"
)

// TestLiveCompactionPrunesDelivered drives the record-budget trigger the way
// the service's delivery path does — MaybeCheckpoint after every delivery,
// watermark = delivered id + 1 — and pins that mid-run checkpoints prune the
// fully-delivered segments while the journal keeps accepting admissions, so
// the recovery scan stays bounded by the budget, not by lifetime traffic.
func TestLiveCompactionPrunesDelivered(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(51)
	w, _, err := journal.Open(dir, journal.Options{
		Template: tmpl, SegmentBytes: 512, CheckpointEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	const total = 40
	wrote := 0
	var lastWatermark uint64
	for id := uint64(0); id < total; id++ {
		admit(t, w, tmpl, id, []ident.Value{ident.Value(id % 2)})
		// Everything admitted so far is delivered in this drill, so the
		// watermark trails the admission by zero.
		ok, err := w.MaybeCheckpoint(id+1, service.Stats{Instances: id + 1})
		if err != nil {
			t.Fatalf("maybe-checkpoint at %d: %v", id, err)
		}
		if ok {
			wrote++
			lastWatermark = id + 1
		}
	}
	st := w.Stats()
	if wrote == 0 || st.Checkpoints != uint64(wrote) {
		t.Fatalf("mid-run checkpoints: returned %d, stats %d", wrote, st.Checkpoints)
	}
	if st.Pruned == 0 {
		t.Fatalf("live compaction pruned nothing: %+v", st)
	}
	if st.CheckpointFailures != 0 || st.PruneFailures != 0 {
		t.Fatalf("unexpected failures: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Watermark != total {
		t.Fatalf("watermark %d, want %d", rec.Watermark, total)
	}
	// The pending set is exactly the admissions past the last mid-run
	// checkpoint — the bounded replay window.
	if want := int(total - lastWatermark); len(rec.Pending) != want {
		t.Fatalf("pending %d, want %d (last checkpoint watermark %d)", len(rec.Pending), want, lastWatermark)
	}
	if rec.Records >= total+wrote {
		t.Fatalf("recovery scanned %d records — pruning removed nothing (%d admissions, %d checkpoints)",
			rec.Records, total, wrote)
	}
}

// TestLiveCompactionKeepsInFlightSegments is the prune-safety core: an
// undelivered admission can live in a segment *older* than the one the
// checkpoint record lands in, and such segments must survive compaction. A
// checkpoint at a low watermark over many rotated segments must leave every
// admission at or above the watermark recoverable, dense and intact.
func TestLiveCompactionKeepsInFlightSegments(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(52)
	w, _, err := journal.Open(dir, journal.Options{
		Template: tmpl, SegmentBytes: 512, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	const total = 20
	for id := uint64(0); id < total; id++ {
		admit(t, w, tmpl, id, []ident.Value{ident.Value(id % 2), ident.Value((id + 1) % 2)})
	}
	// Only ids 0..2 are delivered; 3..19 are in flight across many segments.
	const watermark = 3
	if ok, err := w.MaybeCheckpoint(watermark, service.Stats{Instances: watermark}); !ok || err != nil {
		t.Fatalf("due checkpoint: wrote=%v err=%v", ok, err)
	}
	// Same watermark again: nothing newly delivered, nothing due.
	if ok, err := w.MaybeCheckpoint(watermark, service.Stats{}); ok || err != nil {
		t.Fatalf("stalled watermark must not checkpoint: wrote=%v err=%v", ok, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err) // a pruned in-flight segment would surface here as ErrCorrupt (id gap)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Watermark != watermark {
		t.Fatalf("checkpoint %+v, want watermark %d", rec.Checkpoint, watermark)
	}
	if len(rec.Pending) != total-watermark {
		t.Fatalf("pending %d, want %d", len(rec.Pending), total-watermark)
	}
	for i, a := range rec.Pending {
		if a.ID != watermark+uint64(i) {
			t.Fatalf("pending[%d] id %d, want %d", i, a.ID, watermark+uint64(i))
		}
		if len(a.Values) != 2 || a.Values[0] != ident.Value(a.ID%2) {
			t.Fatalf("pending[%d] values %v corrupted", i, a.Values)
		}
	}
}

// TestMaybeCheckpointTimer pins the timer trigger: not due before the
// interval elapses, due after — but only when the watermark advanced.
func TestMaybeCheckpointTimer(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(53)
	w, _, err := journal.Open(dir, journal.Options{
		Template: tmpl, CheckpointInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()

	admit(t, w, tmpl, 0, []ident.Value{1})
	if ok, err := w.MaybeCheckpoint(1, service.Stats{}); ok || err != nil {
		t.Fatalf("checkpoint before the interval: wrote=%v err=%v", ok, err)
	}
	time.Sleep(50 * time.Millisecond)
	if ok, err := w.MaybeCheckpoint(1, service.Stats{}); !ok || err != nil {
		t.Fatalf("checkpoint after the interval: wrote=%v err=%v", ok, err)
	}
	time.Sleep(50 * time.Millisecond)
	if ok, err := w.MaybeCheckpoint(1, service.Stats{}); ok || err != nil {
		t.Fatalf("timer fired without watermark progress: wrote=%v err=%v", ok, err)
	}
}

// TestCheckpointFailuresCounted pins the drain-path observability fix: a
// checkpoint refused by a closed writer is an error *and* a counted failure,
// so the swallowed drain-checkpoint error still shows on /metrics and in the
// baserve drain banner.
func TestCheckpointFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(54)
	w, _, err := journal.Open(dir, journal.Options{Template: tmpl, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	admit(t, w, tmpl, 0, []ident.Value{1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(1, service.Stats{}); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("checkpoint on closed writer: %v", err)
	}
	// MaybeCheckpoint was due (1 admission since the last checkpoint, fresh
	// watermark) — the failed attempt counts too.
	if ok, err := w.MaybeCheckpoint(1, service.Stats{}); !ok || !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("maybe-checkpoint on closed writer: wrote=%v err=%v", ok, err)
	}
	if got := w.Stats().CheckpointFailures; got != 2 {
		t.Fatalf("CheckpointFailures = %d, want 2", got)
	}
}

// TestPruneRetryOnFlusherTick is the regression for the stranded-segment bug:
// pruneLocked used to ignore os.Remove errors, leaving a failed prune to wait
// for the *next* checkpoint — a full budget window under periodic compaction.
// Now the failure is counted and the flusher tick retries it, with no
// additional checkpoint in between.
func TestPruneRetryOnFlusherTick(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(55)
	w, _, err := journal.Open(dir, journal.Options{
		Template: tmpl, Fsync: 5 * time.Millisecond, SegmentBytes: 512, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.Close() }()

	var failing atomic.Bool
	failing.Store(true)
	w.SetRemoveFileForTest(func(path string) error {
		if failing.Load() {
			return errors.New("injected remove failure")
		}
		return os.Remove(path)
	})

	const total = 80 // enough to rotate several 512-byte segments
	for id := uint64(0); id < total; id++ {
		admit(t, w, tmpl, id, []ident.Value{ident.Value(id % 2)})
	}
	if ok, err := w.MaybeCheckpoint(total, service.Stats{}); !ok || err != nil {
		t.Fatalf("checkpoint: wrote=%v err=%v", ok, err)
	}
	st := w.Stats()
	if st.Segments < 2 {
		t.Fatalf("load did not rotate segments: %+v", st)
	}
	if st.PruneFailures == 0 || st.Pruned != 0 {
		t.Fatalf("injected failures not observed: %+v", st)
	}
	if !w.PrunePendingForTest() {
		t.Fatal("failed prune not marked for retry")
	}
	checkpointsBefore := st.Checkpoints

	// Heal the filesystem; the group-commit flusher must re-prune within a
	// few ticks, without any new checkpoint.
	failing.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = w.Stats()
		if st.Pruned > 0 && !w.PrunePendingForTest() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher tick never re-pruned: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.Checkpoints != checkpointsBefore {
		t.Fatalf("retry required a new checkpoint (%d -> %d)", checkpointsBefore, st.Checkpoints)
	}
	if st.Segments != 1 {
		t.Fatalf("segments after re-prune: %d, want 1", st.Segments)
	}
}

// TestServiceLiveCompactionDeterminism is the tentpole correctness drill,
// run under -race by `make check`: a journaled service under concurrent
// submitters takes mid-run checkpoints (live compaction), the writer is
// closed before the drain so the final checkpoint fails (counted, swallowed),
// and a second generation — at a different shard count — must replay exactly
// the post-checkpoint window, reproduce every decision byte-identically
// under the original ids, and end with nothing pending.
func TestServiceLiveCompactionDeterminism(t *testing.T) {
	dir := t.TempDir()
	tmpl := template(56)
	ctx := context.Background()
	open := func() (*journal.Writer, *journal.Recovery) {
		t.Helper()
		w, rec, err := journal.Open(dir, journal.Options{
			Template: tmpl, Fsync: time.Millisecond, SegmentBytes: 1024, CheckpointEvery: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w, rec
	}

	// Generation 1: concurrent submitters against a compacting journal. The
	// run function gates instances past `total`, so the trailing extras are
	// journaled but provably undelivered while the writer is closed — a
	// deterministic crash window, whatever the checkpoint timing did.
	const (
		submitters = 4
		perWorker  = 16
		total      = submitters * perWorker
		extras     = 4
	)
	w1, _ := open()
	gate := make(chan struct{})
	svc1, err := service.New(ctx, service.Config{
		Template: tmpl, Journal: w1, Shards: 4, QueueDepth: 64,
		Substrate: service.SharedRun(func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
			if cfg.Seed-tmpl.Seed >= total {
				<-gate
			}
			return service.RunSim(ctx, cfg)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu        sync.Mutex
		decisions = make(map[uint64]map[ident.ProcID]sim.Decision, total+extras)
		wg        sync.WaitGroup
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := svc1.SubmitWait(ctx, ident.Value((g+i)%2))
				if err != nil {
					t.Errorf("submitter %d: %v", g, err)
					return
				}
				mu.Lock()
				decisions[res.Instance.ID] = res.Instance.Decisions
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st1 := w1.Stats()
	if st1.Checkpoints == 0 {
		t.Fatalf("no mid-run checkpoint under load: %+v", st1)
	}
	// The extras: admitted and journaled, then parked behind the gate.
	extraCh := make([]<-chan service.Result, extras)
	for i := range extraCh {
		ch, err := svc1.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatalf("extra %d: %v", i, err)
		}
		extraCh[i] = ch
	}
	deadline := time.Now().Add(10 * time.Second)
	for w1.Stats().Records < total+extras {
		if time.Now().After(deadline) {
			t.Fatalf("extras never journaled: %+v", w1.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// Close the writer while the extras are in flight: every later
	// checkpoint attempt — including the drain's — must fail, be counted,
	// and leave the post-checkpoint window pending on disk.
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	for i, ch := range extraCh {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("extra %d failed: %v", i, res.Err)
		}
		mu.Lock()
		decisions[res.Instance.ID] = res.Instance.Decisions
		mu.Unlock()
	}
	svc1.Close()
	if got := w1.Stats().CheckpointFailures; got == 0 {
		t.Fatal("failed drain checkpoint not counted")
	}

	// Generation 2: fewer shards — determinism must not depend on the
	// execution geometry.
	w2, rec := open()
	if rec.Checkpoint == nil {
		t.Fatal("mid-run checkpoint not recovered")
	}
	if len(rec.Pending) < extras || len(rec.Pending) >= total {
		t.Fatalf("pending %d of %d — compaction did not bound the replay window to the crash tail",
			len(rec.Pending), total+extras)
	}
	svc2, err := service.New(ctx, service.Config{
		Template: tmpl, Journal: w2, Shards: 2, QueueDepth: 64,
		FirstInstance: rec.FirstInstance(), BaseStats: rec.BaseStats(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range rec.Pending {
		if a.ID != rec.Pending[0].ID+uint64(i) {
			t.Fatalf("pending ids not dense at %d: %d", i, a.ID)
		}
		ch, err := svc2.Replay(a.Values)
		if err != nil {
			t.Fatalf("replay %d: %v", a.ID, err)
		}
		for range a.Values {
			res := <-ch
			if res.Err != nil {
				t.Fatalf("replayed %d failed: %v", a.ID, res.Err)
			}
			if res.Instance.ID != a.ID {
				t.Fatalf("replayed under id %d, journaled %d", res.Instance.ID, a.ID)
			}
			if !reflect.DeepEqual(res.Instance.Decisions, decisions[a.ID]) {
				t.Fatalf("instance %d decisions diverge across restart:\n gen1: %v\n gen2: %v",
					a.ID, decisions[a.ID], res.Instance.Decisions)
			}
		}
	}
	svc2.Close()
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Pending) != 0 || final.Watermark != total+extras {
		t.Fatalf("post-drain: %d pending, watermark %d (want 0, %d)",
			len(final.Pending), final.Watermark, total+extras)
	}
}
