package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

func meshConfig(value ident.Value, seed int64) core.Config {
	return core.Config{Protocol: alg1.Protocol{}, N: 3, T: 1, Value: value, Seed: seed}
}

func meshAgreement(t *testing.T, res *Result, want ident.Value) {
	t.Helper()
	if got, err := res.Decision(0, want); err != nil || got != want {
		t.Fatalf("decided %v (%v), want %v", got, err, want)
	}
}

// TestMeshMultiEpoch pins the tentpole contract: one warm mesh serves many
// instances back to back, with per-instance state fully reset between epochs
// (different values and seeds must not bleed into each other).
func TestMeshMultiEpoch(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	values := []ident.Value{ident.V1, ident.V0, ident.V1, ident.V0, ident.V1}
	for i, v := range values {
		res, err := m.Run(ctx, meshConfig(v, int64(100+i)))
		if err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		meshAgreement(t, res, v)
		if res.Report.MessagesCorrect == 0 {
			t.Fatalf("epoch %d counted no messages", i+1)
		}
	}
	if m.epoch != uint64(len(values)) {
		t.Fatalf("mesh at epoch %d after %d runs", m.epoch, len(values))
	}
}

// TestMeshCancelWithSilentPeer: a cancelled context must end a phase barrier
// that is waiting out a silent peer — the drain an operator cancels — instead
// of being noticed only when the phase timeout fires. The bound is the
// timeout itself, far looser than the microseconds the wake-up takes.
func TestMeshCancelWithSilentPeer(t *testing.T) {
	const phaseTimeout = 30 * time.Second
	mute := ident.NewSet(2)
	m, err := NewMesh(context.Background(), 3, Net{PhaseTimeout: phaseTimeout, Mute: mute})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(60*time.Millisecond, cancel) // by then the live peers sit in phase 1's barrier
	cfg := meshConfig(ident.V1, 1)
	cfg.FaultyOverride = &mute
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(ctx, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(phaseTimeout / 2):
		t.Fatal("the barrier wait ignored its cancelled context")
	}
}

// TestLinkDelayMutedPeer: a muted sender is never heard, so it is not among
// the senders a link-delay hold waits on — it records no send instant at all.
// The live peers still serve the delay to each other, and silence beyond the
// fault bound still ends the run with ErrStalled.
func TestLinkDelayMutedPeer(t *testing.T) {
	const delay = 2 * time.Millisecond
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		mute  ident.Set
		stall bool
	}{
		{"in budget", ident.NewSet(2), false},
		{"beyond t", ident.NewSet(1, 2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 40 * time.Millisecond, Mute: tc.mute, LinkDelay: delay})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			cfg := meshConfig(ident.V1, 1)
			override := ident.NewSet(2)
			cfg.FaultyOverride = &override
			began := time.Now()
			res, err := m.Run(ctx, cfg)
			wall := time.Since(began)
			if tc.stall {
				if !errors.Is(err, ErrStalled) {
					t.Fatalf("got %v, want ErrStalled", err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				meshAgreement(t, res, ident.V1)
				if floor := time.Duration(cfg.Protocol.Phases(3, 1)) * delay; wall < floor {
					t.Errorf("run took %v, under phases × delay = %v", wall, floor)
				}
			}
			for id, p := range m.peers {
				stamped := p.sent[0].Load() != 0 || p.sent[1].Load() != 0
				if muted := tc.mute.Has(ident.ProcID(id)); stamped == muted {
					t.Errorf("peer %d: muted=%v, recorded a send instant=%v", id, muted, stamped)
				}
			}
		})
	}
}

// TestMeshReconnectKeepsLiveLinks kills one outbound connection between
// epochs. The next instance must succeed by redialing exactly that link; the
// rest of the warm mesh must be the same sockets as before — reconnection is
// surgical, not a rebuild.
func TestMeshReconnectKeepsLiveLinks(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Run(ctx, meshConfig(ident.V1, 7)); err != nil {
		t.Fatal(err)
	}

	// Sever 1 -> 2 behind the mesh's back, as a crashed-and-restarted peer
	// process would, and snapshot every other socket.
	broken := m.peers[1].conns[2]
	before := make(map[[2]int]net.Conn)
	for i, p := range m.peers {
		for j, c := range p.conns {
			if c != nil {
				before[[2]int{i, j}] = c
			}
		}
	}
	_ = broken.Close()

	res, err := m.Run(ctx, meshConfig(ident.V0, 8))
	if err != nil {
		t.Fatalf("epoch after severed link: %v", err)
	}
	meshAgreement(t, res, ident.V0)

	if m.peers[1].conns[2] == broken {
		t.Fatal("severed link was not redialed")
	}
	for key, old := range before {
		if key == [2]int{1, 2} {
			continue
		}
		if m.peers[key[0]].conns[key[1]] != old {
			t.Fatalf("live link %v was replaced during reconnect", key)
		}
	}
}

// TestMeshStaleEpochDropped injects frames tagged with a bogus epoch straight
// into a listener. They must be dropped before the message section is ever
// delivered: the next instance still agrees, untouched by the garbage.
func TestMeshStaleEpochDropped(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	conn, err := net.Dial("tcp", m.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	w := wire.NewWriter(64)
	poison := []sim.Envelope{{From: 2, To: 0, Phase: 1, Payload: []byte("stale"), SigTotal: 99}}
	for phase := 1; phase <= 3; phase++ {
		if err := writeFrame(conn, w, time.Second, 0, 999, phase, 2, poison); err != nil {
			t.Fatal(err)
		}
	}

	res, err := m.Run(ctx, meshConfig(ident.V1, 21))
	if err != nil {
		t.Fatal(err)
	}
	meshAgreement(t, res, ident.V1)
}

// TestMeshMixedVersions is the rolling-upgrade drill: one peer emits the
// previous frame version while the rest emit the current one, and agreement
// still completes through one warm mesh — receivers accept the whole
// compatibility window, so an encoding change needs no flag day.
func TestMeshMixedVersions(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if err := m.SetPeerWireVersion(1, wire.FrameVersionMin); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := m.Run(ctx, meshConfig(ident.V1, int64(40+i)))
		if err != nil {
			t.Fatalf("mixed-version epoch %d: %v", i+1, err)
		}
		meshAgreement(t, res, ident.V1)
	}

	if err := m.SetPeerWireVersion(3, wire.FrameVersionMin); err == nil {
		t.Fatal("peer id outside the mesh accepted")
	}
	if err := m.SetPeerWireVersion(1, wire.FrameVersion+1); !errors.Is(err, wire.ErrWireVersion) {
		t.Fatalf("future emit version: got %v, want wire.ErrWireVersion", err)
	}
}

// TestMeshFutureVersionConnRejected injects a v+1 frame straight into a
// listener: the mesh must drop the connection at the version byte (the typed
// wire.ErrWireVersion path pinned in TestFrameFutureVersionRejected) without
// the garbage layout ever reaching an instance.
func TestMeshFutureVersionConnRejected(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	conn, err := net.Dial("tcp", m.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte{0, 0, 0, 4, wire.FrameVersion + 1, 0x01, 0x01, 0x00}); err != nil {
		t.Fatal(err)
	}
	// The server closes the poisoned connection: the next read sees EOF.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived a future-version frame")
	}

	res, err := m.Run(ctx, meshConfig(ident.V1, 33))
	if err != nil {
		t.Fatal(err)
	}
	meshAgreement(t, res, ident.V1)
}

// TestMeshBusy rejects a second concurrent instance instead of interleaving
// two epochs on the same sockets.
func TestMeshBusy(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	m.running.Store(true)
	if _, err := m.Run(ctx, meshConfig(ident.V1, 1)); !errors.Is(err, ErrMeshBusy) {
		t.Fatalf("got %v, want ErrMeshBusy", err)
	}
	m.running.Store(false)
	if _, err := m.Run(ctx, meshConfig(ident.V1, 1)); err != nil {
		t.Fatalf("mesh unusable after busy rejection: %v", err)
	}
}

// TestMeshRefusesRushing: a rushing adversary sees each phase's correct
// traffic before it sends, which concurrently stepping peers cannot give it,
// so the mesh refuses the configuration typed instead of running a
// non-rushing one — and stays usable.
func TestMeshRefusesRushing(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cfg := meshConfig(ident.V1, 1)
	cfg.Rushing = true
	if _, err := m.Run(ctx, cfg); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("got %v, want errors.ErrUnsupported", err)
	}
	res, err := m.Run(ctx, meshConfig(ident.V1, 1))
	if err != nil {
		t.Fatal(err)
	}
	meshAgreement(t, res, ident.V1)
}

// TestMeshSizeMismatch rejects configs that do not match the warm topology.
func TestMeshSizeMismatch(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cfg := core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Value: ident.V1}
	if _, err := m.Run(ctx, cfg); err == nil {
		t.Fatal("mesh for n=3 accepted a config with n=7")
	}
}

// TestMeshCloseIdempotent double-closes, including after traffic flowed.
func TestMeshCloseIdempotent(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(ctx, meshConfig(ident.V1, 3)); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
}
