package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/protocols/alg1"
	"byzex/internal/service"
	"byzex/internal/trace"
)

// TestServeCrashRecovery is the durability acceptance drill: a journaled
// baserve is SIGKILLed mid-load, and a restart over the same journal
// directory must (1) never reuse an instance id — the recovered watermark
// clears every journaled admission, (2) replay every pending admission
// successfully (the replay trace events carry the original ids), and
// (3) serve on, with live instances numbered past the watermark. Every
// journaled recipe is also re-run serially through core.Run, pinning that
// the replayed instances are reproducible outside the server. Runs under
// -race via `make crash`.
func TestServeCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash drill forks the test binary")
	}
	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")

	// Generation 1: a real child process, so SIGKILL is available — a drain
	// path (SIGINT inside the test process) can never tear a write.
	serveArgs := []string{
		"-protocol", "alg1", "-t", "3", "-seed", "21",
		"-addr", "127.0.0.1:0", "-shards", "2",
		"-journal-dir", journalDir, "-fsync", "always",
	}
	child, gen1, _ := fork(t, serveArgs)
	if gen1.Fsync != "always" || gen1.Watermark != 0 || gen1.Replayed != 0 {
		t.Fatalf("fresh journal banner: %+v", gen1)
	}

	// Load it from several connections and SIGKILL mid-flight: every OK
	// reply is a journaled admission (fsync=always), and whatever was
	// admitted-but-undelivered at the kill is the pending set. The load stops
	// just before the kill, so the connections it severs are not errors.
	const minAcked = 10
	loadCtx, stop := context.WithTimeout(context.Background(), 15*time.Second)
	defer stop()
	var killErr error
	load, err := service.RunLoad(loadCtx, service.LoadConfig{
		Addr:     gen1.Addr,
		Conns:    4,
		ValueFor: func(c, i int) ident.Value { return ident.Value((c + i) % 2) },
		OnAck: func(acked int) {
			if acked == minAcked {
				stop()
				killErr = child.Process.Kill() // SIGKILL: no drain, no checkpoint
			}
		},
	})
	if err != nil || killErr != nil {
		t.Fatalf("load: %v, kill: %v", err, killErr)
	}
	if load.Submitted < minAcked {
		t.Fatalf("only %d submissions acknowledged before the deadline", load.Submitted)
	}
	_ = child.Wait()

	// The journal is the crash's ground truth: no checkpoint was ever
	// written, so every journaled admission is pending, and the watermark
	// clears all of them.
	rec, err := journal.Recover(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Pending) == 0 || rec.Checkpoint != nil {
		t.Fatalf("crash journal: %d pending, checkpoint=%v", len(rec.Pending), rec.Checkpoint)
	}
	if len(rec.Pending) < load.Submitted {
		t.Fatalf("journal holds %d admissions, %d were acknowledged", len(rec.Pending), load.Submitted)
	}
	for _, a := range rec.Pending {
		if a.ID >= rec.Watermark {
			t.Fatalf("journaled id %d not cleared by watermark %d", a.ID, rec.Watermark)
		}
	}

	// Each journaled recipe must re-execute deterministically outside the
	// server, by service.InstanceConfig.
	tmpl := core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Seed: 21}
	ctx := context.Background()
	for _, a := range rec.Pending[:min(len(rec.Pending), 8)] {
		cfg := service.InstanceConfig(tmpl, a.ID, a.Values)
		serial, err := core.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("serial run of journaled admission %d: %v", a.ID, err)
		}
		if dec, err := serial.Decision(cfg.Transmitter, cfg.Value); err != nil || dec != cfg.Value {
			t.Fatalf("journaled admission %d does not commit serially: %v %v", a.ID, dec, err)
		}
	}

	// Generation 2: restart over the same journal directory. The recovery
	// banner must appear before the listener opens, and must report the full
	// pending set.
	tracePath := filepath.Join(dir, "recovery.jsonl")
	child2, gen2, outPath2 := fork(t, append(serveArgs[:len(serveArgs):len(serveArgs)],
		"-trace", tracePath))
	if gen2.Fsync != "always" || gen2.Replayed != len(rec.Pending) {
		t.Fatalf("recovery banner %+v, journal had %d pending", gen2, len(rec.Pending))
	}
	out, _ := os.ReadFile(outPath2) // the whole banner is out before the order is judged
	if strings.Index(string(out), "journal:") > strings.Index(string(out), "listening on") {
		t.Fatalf("listener opened before recovery finished:\n%s", out)
	}

	// Live traffic resumes past the watermark: no id — and therefore no
	// per-instance seed — is ever reused across the crash.
	cl, err := service.DialClient(gen2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	const live = 5
	for i := 0; i < live; i++ {
		rep, err := cl.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatalf("post-recovery submit %d: %v", i, err)
		}
		if rep.InstanceID != rec.Watermark+uint64(i) {
			t.Fatalf("post-recovery instance id %d, want %d", rep.InstanceID, rec.Watermark+uint64(i))
		}
		if rep.Seed != tmpl.Seed+int64(rep.InstanceID) {
			t.Fatalf("post-recovery seed %d for id %d", rep.Seed, rep.InstanceID)
		}
	}
	_ = cl.Close()

	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		out, _ := os.ReadFile(outPath2)
		t.Fatalf("recovered server drain: %v\n%s", err, out)
	}

	// The trace pins the replay: one replay event per pending admission,
	// carrying the original instance id, all successful.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	replayedIDs := make(map[int]bool)
	for _, e := range events {
		if e.Kind != trace.KindReplay {
			continue
		}
		if !e.Flag {
			t.Fatalf("replayed instance %d failed", e.Signers)
		}
		replayedIDs[e.Signers] = true
	}
	if len(replayedIDs) != len(rec.Pending) {
		t.Fatalf("trace shows %d replayed instances, journal had %d pending", len(replayedIDs), len(rec.Pending))
	}
	for _, a := range rec.Pending {
		if !replayedIDs[int(a.ID)] {
			t.Fatalf("journaled admission %d never replayed", a.ID)
		}
	}

	// The drain checkpointed: a third boot would have nothing to replay.
	final, err := journal.Recover(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Pending) != 0 || final.Checkpoint == nil {
		t.Fatalf("post-drain journal: %d pending, checkpoint=%v", len(final.Pending), final.Checkpoint)
	}
	if final.Watermark != rec.Watermark+live {
		t.Fatalf("final watermark %d, want %d", final.Watermark, rec.Watermark+live)
	}
	if got := final.Checkpoint.Stats.Instances; got != uint64(len(rec.Pending)+live) {
		t.Fatalf("final checkpoint instances %d, want %d", got, len(rec.Pending)+live)
	}
}
