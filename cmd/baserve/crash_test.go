package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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

// TestHelperServeProcess is not a test: it is the child body of the crash
// drill. The drill re-executes the test binary with this run filter and the
// env below, so the server can be SIGKILLed — a drain path (SIGINT inside
// the test process) can never exercise torn-write recovery.
func TestHelperServeProcess(t *testing.T) {
	if os.Getenv("BASERVE_CRASH_HELPER") != "1" {
		t.Skip("crash-drill helper process only")
	}
	args := strings.Split(os.Getenv("BASERVE_CRASH_ARGS"), "\x1f")
	os.Exit(run(args, os.Stdout, os.Stderr))
}

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

	// Generation 1: a real child process, so SIGKILL is available.
	serveArgs := []string{
		"-protocol", "alg1", "-t", "3", "-seed", "21",
		"-addr", "127.0.0.1:0", "-shards", "2",
		"-journal-dir", journalDir, "-fsync", "always",
	}
	outF, err := os.Create(filepath.Join(dir, "child-stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = outF.Close() }()
	child := exec.Command(os.Args[0], "-test.run", "^TestHelperServeProcess$")
	child.Env = append(os.Environ(),
		"BASERVE_CRASH_HELPER=1",
		"BASERVE_CRASH_ARGS="+strings.Join(serveArgs, "\x1f"),
	)
	child.Stdout = outF
	child.Stderr = outF
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			_ = child.Process.Kill()
			_ = child.Wait()
		}
	}()
	gen1 := waitForBanner(t, outF.Name())
	if gen1.Fsync != "always" || gen1.Watermark != 0 || gen1.Replayed != 0 {
		t.Fatalf("fresh journal banner: %+v", gen1)
	}
	addr := gen1.Addr

	// Load it from several connections and SIGKILL mid-flight: every OK
	// reply is a journaled admission (fsync=always), and whatever was
	// admitted-but-undelivered at the kill is the pending set.
	const minAcked = 10
	var (
		acked   atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := service.DialClient(addr)
			if err != nil {
				return
			}
			defer func() { _ = cl.Close() }()
			for i := 0; !stopped.Load(); i++ {
				if _, err := cl.Submit(ident.Value((c + i) % 2)); err != nil {
					return // the kill severs the connection
				}
				acked.Add(1)
			}
		}(c)
	}
	deadline := time.Now().Add(15 * time.Second)
	for acked.Load() < minAcked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d submissions acknowledged before the deadline", acked.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL: no drain, no checkpoint
		t.Fatal(err)
	}
	killed = true
	_ = child.Wait()
	stopped.Store(true)
	wg.Wait()

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
	if got := int64(len(rec.Pending)); got < acked.Load() {
		t.Fatalf("journal holds %d admissions, %d were acknowledged", got, acked.Load())
	}
	for _, a := range rec.Pending {
		if a.ID >= rec.Watermark {
			t.Fatalf("journaled id %d not cleared by watermark %d", a.ID, rec.Watermark)
		}
	}

	// Each journaled recipe must re-execute deterministically outside the
	// server: seed = template seed + id, value = PackValues(values).
	tmpl := core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Seed: 21}
	ctx := context.Background()
	for _, a := range rec.Pending[:min(len(rec.Pending), 8)] {
		cfg := tmpl
		cfg.Value = service.PackValues(a.Values)
		cfg.Seed = tmpl.Seed + int64(a.ID)
		serial, err := core.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("serial run of journaled admission %d: %v", a.ID, err)
		}
		if dec, err := serial.Decision(cfg.Transmitter, cfg.Value); err != nil || dec != cfg.Value {
			t.Fatalf("journaled admission %d does not commit serially: %v %v", a.ID, dec, err)
		}
	}

	// Generation 2: restart over the same journal directory, in-process so
	// the SIGINT drain path stays testable. The recovery banner must appear
	// before the listener opens, and must report the full pending set.
	tracePath := filepath.Join(dir, "recovery.jsonl")
	done, stdoutPath, stderrPath := startServe(t, append(serveArgs[:len(serveArgs):len(serveArgs)],
		"-trace", tracePath))
	gen2 := waitForBanner(t, stdoutPath) // the whole banner is out before the order is judged
	if gen2.Fsync != "always" || gen2.Replayed != len(rec.Pending) {
		t.Fatalf("recovery banner %+v, journal had %d pending", gen2, len(rec.Pending))
	}
	addr2 := gen2.Addr
	out, _ := os.ReadFile(stdoutPath)
	if strings.Index(string(out), "journal:") > strings.Index(string(out), "listening on") {
		t.Fatalf("listener opened before recovery finished:\n%s", out)
	}

	// Live traffic resumes past the watermark: no id — and therefore no
	// per-instance seed — is ever reused across the crash.
	cl, err := service.DialClient(addr2)
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

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			errOut, _ := os.ReadFile(stderrPath)
			t.Fatalf("recovered server exit %d\nstderr:\n%s", code, errOut)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("recovered server did not drain after SIGINT")
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
