package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/journal"
	"byzex/internal/protocols/alg1"
	"byzex/internal/service"
	"byzex/internal/transport"
	"byzex/internal/wire"
)

// TestServeRollingUpgrade is the scripted fleet upgrade: two journaled
// baserve processes run side by side on the TCP transport, the "old" one
// pinned to the previous frame version. Under continuous load to its
// sibling, the old server is drained (SIGTERM — checkpoint, prune, exit 0)
// and restarted over the same journal directory emitting the current frame
// version. The drill pins that (1) the sibling serves without interruption
// through the roll, (2) the upgraded server's instance ids continue exactly
// where the drain checkpoint left them — no id, and so no per-instance
// seed, is reused across a version change — and (3) a warm mesh carries a
// peer across the same version change in-process, so the upgrade needs no
// flag day at either granularity. Wired as `make upgrade` (part of check),
// runs under -race.
func TestServeRollingUpgrade(t *testing.T) {
	if testing.Short() {
		t.Skip("upgrade drill forks the test binary")
	}
	dir := t.TempDir()
	journalA := filepath.Join(dir, "journal-a")

	// The fleet: A emits the previous frame version and journals with a
	// small mid-run checkpoint budget (live compaction runs in the real
	// binary, not just the unit tests); B emits the current version.
	argsA := []string{
		"-protocol", "alg1", "-t", "1", "-seed", "31",
		"-addr", "127.0.0.1:0", "-shards", "2",
		"-transport", "tcp", "-wire-version", strconv.Itoa(int(wire.FrameVersionMin)),
		"-journal-dir", journalA, "-fsync", "always", "-checkpoint-every", "4",
	}
	argsB := []string{
		"-protocol", "alg1", "-t", "1", "-seed", "47",
		"-addr", "127.0.0.1:0", "-shards", "2",
		"-transport", "tcp", "-wire-version", strconv.Itoa(int(wire.FrameVersion)),
	}
	childA, genA, outA := fork(t, argsA)
	if genA.Fsync != "always" || genA.Watermark != 0 || genA.Replayed != 0 {
		t.Fatalf("fresh journal banner: %+v", genA)
	}
	_, genB, _ := fork(t, argsB)

	// Continuous load to B for the whole drill: the roll must not dent it.
	// Each acknowledgement bumps ackedB and ticks ackB.
	var ackedB atomic.Int64
	ackB := make(chan struct{}, 1)
	loadB, stopB := context.WithCancel(context.Background())
	doneB := make(chan error, 1)
	go func() {
		_, err := service.RunLoad(loadB, service.LoadConfig{
			Addr:     genB.Addr,
			ValueFor: func(_, i int) ident.Value { return ident.Value(i % 2) },
			OnAck: func(acked int) {
				ackedB.Store(int64(acked))
				select {
				case ackB <- struct{}{}:
				default:
				}
			},
		})
		doneB <- err
	}()

	// Old-version A takes traffic past its checkpoint budget, so at least
	// one live checkpoint lands before the drain writes the final one.
	clA, err := service.DialClient(genA.Addr)
	if err != nil {
		t.Fatal(err)
	}
	const ackedA = 6
	for i := 0; i < ackedA; i++ {
		if _, err := clA.Submit(ident.Value(i % 2)); err != nil {
			t.Fatalf("submit %d to old-version server: %v", i, err)
		}
	}
	_ = clA.Close()

	// Roll A: drain the old binary the way an operator does.
	ackedBeforeRoll := ackedB.Load()
	if err := childA.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := childA.Wait(); err != nil {
		out, _ := os.ReadFile(outA)
		t.Fatalf("old-version server drain: %v\n%s", err, out)
	}
	if out, _ := os.ReadFile(outA); !strings.Contains(string(out), "drained after") ||
		strings.Contains(string(out), "checkpoint write(s) failed") {
		t.Fatalf("old-version drain banner:\n%s", out)
	}

	// Between generations the journal is the handoff: the drain checkpoint
	// covers everything, old segments are pruned, nothing is pending.
	rec, err := journal.Recover(journalA)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || len(rec.Pending) != 0 {
		t.Fatalf("drain handoff: checkpoint=%v pending=%d", rec.Checkpoint, len(rec.Pending))
	}
	if rec.Watermark != ackedA {
		t.Fatalf("drain watermark %d, want %d", rec.Watermark, ackedA)
	}

	// Generation 2: same journal directory, current frame version.
	argsA2 := append(argsA[:len(argsA):len(argsA)], "-wire-version", strconv.Itoa(int(wire.FrameVersion)))
	_, genA2, _ := fork(t, argsA2)
	if genA2.Fsync != "always" || genA2.Watermark != ackedA || genA2.Replayed != 0 {
		t.Fatalf("upgraded server banner %+v, want watermark %d replayed 0", genA2, ackedA)
	}

	// Instance ids continue exactly past the old generation's watermark.
	clA2, err := service.DialClient(genA2.Addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := clA2.Submit(ident.Value(i % 2))
		if err != nil {
			t.Fatalf("post-upgrade submit %d: %v", i, err)
		}
		if rep.InstanceID != uint64(ackedA+i) {
			t.Fatalf("post-upgrade instance id %d, want %d", rep.InstanceID, ackedA+i)
		}
		if rep.Seed != 31+int64(rep.InstanceID) {
			t.Fatalf("post-upgrade seed %d for id %d", rep.Seed, rep.InstanceID)
		}
	}
	_ = clA2.Close()

	// B never stopped: its acknowledged count moved while A was down.
	deadline := time.After(15 * time.Second)
	for ackedB.Load() <= ackedBeforeRoll {
		select {
		case <-ackB:
		case err := <-doneB:
			t.Fatalf("sibling load interrupted during the roll: %v", err)
		case <-deadline:
			t.Fatalf("sibling served nothing during the roll (stuck at %d)", ackedBeforeRoll)
		}
	}
	stopB()
	if err := <-doneB; err != nil {
		t.Fatalf("sibling load interrupted during the roll: %v", err)
	}

	// The same roll at mesh granularity: one warm mesh, one peer on the old
	// frame version, agreement before and after that peer upgrades mid-mesh.
	ctx := context.Background()
	m, err := transport.NewMesh(ctx, 3, transport.Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, step := range []struct {
		name string
		ver  byte
	}{
		{"old-peer", wire.FrameVersionMin},
		{"upgraded-peer", wire.FrameVersion},
	} {
		if err := m.SetPeerWireVersion(1, step.ver); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		res, err := m.Run(ctx, meshUpgradeConfig(int64(60+int(step.ver))))
		if err != nil {
			t.Fatalf("%s epoch: %v", step.name, err)
		}
		if got, err := res.Decision(0, ident.V1); err != nil || got != ident.V1 {
			t.Fatalf("%s: decided %v (%v), want %v", step.name, got, err, ident.V1)
		}
	}
	if err := m.SetPeerWireVersion(1, wire.FrameVersion+1); err == nil {
		t.Fatal("future frame version accepted for a peer")
	}
}

// meshUpgradeConfig is one agreement epoch for the in-process mesh segment
// of the upgrade drill.
func meshUpgradeConfig(seed int64) core.Config {
	return core.Config{Protocol: alg1.Protocol{}, N: 3, T: 1, Value: ident.V1, Seed: seed}
}
