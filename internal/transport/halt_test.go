package transport

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/trace"
	"byzex/internal/wire"
)

// TestMeshHaltEndsRun: on a warm mesh with a link delay, a value-1 alg1
// instance ends once every correct processor halted — the transmitter after
// phase 1, the others after relaying at phase 2 — so every correct peer
// closed phase 1 and no other: the barrier of phase 2 ended the run. A value-0
// instance on the same mesh closes every phase of the schedule. Phases are
// counted, not wall time; the crash plan is mesh-delay's.
func TestMeshHaltEndsRun(t *testing.T) {
	const n, f = 7, 3
	ctx := context.Background()
	m, err := NewMesh(ctx, n, Net{PhaseTimeout: 10 * time.Second, LinkDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spec, err := faultnet.ParseSpec("crash=1@2")
	if err != nil {
		t.Fatal(err)
	}
	plan := faultnet.MustCompile(spec, 1)
	for i, v := range []ident.Value{ident.V1, ident.V0, ident.V1} {
		cfg := core.Config{Protocol: meshConfig(v, 0).Protocol, N: n, T: f, Value: v, Seed: int64(i), Faults: plan}
		res, err := m.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		if _, err := res.Decision(0, v); err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		closed, end := 1, 2
		if v == ident.V0 {
			closed, end = f+2, f+3
		}
		if res.EndPhase != end {
			t.Errorf("epoch %d (v=%v): ended at phase %d, want %d", i+1, v, res.EndPhase, end)
		}
		for _, p := range m.peers {
			if !res.Faulty.Has(p.id) && p.done != closed {
				t.Errorf("epoch %d (v=%v): peer %d closed phases up to %d, want %d", i+1, v, p.id, p.done, closed)
			}
		}
	}
}

// TestHaltedSenderNotStalled is the stall rule's: in alg1 n=3 t=1 with value
// 0 the transmitter halts after phase 1 and processor 2 crashes at phase 2, so
// from phase 2 on processor 1 hears from nobody — one crashed sender and one
// halted one, which is neither missing nor withheld (here a drop rule names
// its frames), so the gap stays at t and the run completes, equal to the
// in-memory run.
func TestHaltedSenderNotStalled(t *testing.T) {
	ctx := context.Background()
	faulty := ident.NewSet(2)
	for _, rules := range []string{"crash=2@2", "crash=2@2;drop=0->1@2"} {
		spec, err := faultnet.ParseSpec(rules)
		if err != nil {
			t.Fatal(err)
		}
		cfg := meshConfig(ident.V0, 1)
		cfg.Faults, cfg.FaultyOverride = faultnet.MustCompile(spec, 1), &faulty
		memBuf, tcpBuf := trace.NewBuffer(), trace.NewBuffer()
		memCfg, tcpCfg := cfg, cfg
		memCfg.Trace, tcpCfg.Trace = memBuf, tcpBuf
		mem, err := core.Run(ctx, memCfg)
		if err != nil {
			t.Fatalf("%s: memory: %v", rules, err)
		}
		tcp, err := RunCluster(ctx, tcpCfg, Net{PhaseTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("%s: %v", rules, err)
		}
		if _, err := tcp.Decision(0, ident.V0); err != nil {
			t.Fatalf("%s: %v", rules, err)
		}
		if !reflect.DeepEqual(mem.Sim.Decisions, tcp.Decisions) || mem.Sim.EndPhase != tcp.EndPhase || !reflect.DeepEqual(withoutVerify(memBuf.Events()), tcpBuf.Events()) {
			t.Errorf("%s: the mesh's run differs from the in-memory one", rules)
		}
	}

	// The frame of the phase a sender halted in still carries its last
	// sends: with processor 2 silent from the start, dropping the
	// transmitter's phase-1 broadcast to processor 1 leaves it a gap of 2 > t.
	spec, err := faultnet.ParseSpec("crash=2@1;drop=0->1@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := meshConfig(ident.V0, 1)
	cfg.Faults, cfg.FaultyOverride = faultnet.MustCompile(spec, 1), &faulty
	if _, err := RunCluster(ctx, cfg, Net{PhaseTimeout: 500 * time.Millisecond}); !errors.Is(err, ErrStalled) {
		t.Fatalf("a withheld frame of its sender's halting phase: got %v, want ErrStalled", err)
	}
}

// withoutVerify drops the signature cache's events, which a mesh does not
// record.
func withoutVerify(events []trace.Event) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if e.Kind != trace.KindVerifyHit && e.Kind != trace.KindVerifyMiss {
			out = append(out, e)
		}
	}
	return out
}

// TestMeshMixedVersionsHalt: a peer whose processor halted flushes an empty
// frame each phase until the run ends, in every frame version. Pinned to
// FrameV2 or FrameVersionMin on the transmitter, which halts after phase 1,
// or on a relay, it gives the decisions, report, end phase and trace of an
// all-current mesh.
func TestMeshMixedVersionsHalt(t *testing.T) {
	ctx := context.Background()
	run := func(id ident.ProcID, ver byte, v ident.Value) (*Result, []trace.Event) {
		t.Helper()
		m, err := NewMesh(ctx, 7, Net{PhaseTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.SetPeerWireVersion(id, ver); err != nil {
			t.Fatal(err)
		}
		buf := trace.NewBuffer()
		cfg := core.Config{Protocol: meshConfig(v, 0).Protocol, N: 7, T: 3, Value: v, Seed: 3, Trace: buf}
		res, err := m.Run(ctx, cfg)
		if err != nil {
			t.Fatalf("peer %d at v%d: %v", id, ver, err)
		}
		return res, buf.Events()
	}
	for _, v := range []ident.Value{ident.V1, ident.V0} {
		want, wantEvents := run(0, wire.FrameVersion, v)
		for _, id := range []ident.ProcID{0, 4} {
			for _, ver := range []byte{wire.FrameV2, wire.FrameVersionMin} {
				got, events := run(id, ver, v)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(events, wantEvents) {
					t.Errorf("v=%v, peer %d at v%d: result %+v, %d events; all-current %+v, %d events",
						v, id, ver, got, len(events), want, len(wantEvents))
				}
			}
		}
	}
}
