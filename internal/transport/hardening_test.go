package transport

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// TestWriteFrameDeadline pins the write-deadline hardening: a receiver that
// never reads must not block the sender's phase loop past the timeout. Before
// writeFrame took a deadline, this write hung forever.
func TestWriteFrameDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	// b never reads: net.Pipe is unbuffered, so the very first write blocks
	// until the deadline fires.
	msgs := []sim.Envelope{{From: 1, To: 2, Phase: 1, Payload: []byte("stuck")}}
	start := time.Now()
	err := writeFrame(a, wire.NewWriter(64), 100*time.Millisecond, 0, 1, 1, 1, msgs)
	if err == nil {
		t.Fatal("write to a dead receiver succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("got %v, want a net timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write blocked %v despite the deadline", elapsed)
	}
}

// TestWriteFrameDeadlineReset checks that the deadline is cleared after a
// successful write: a later slow-but-legitimate write on the same connection
// must not inherit a stale deadline.
func TestWriteFrameDeadlineReset(t *testing.T) {
	a, b := net.Pipe()
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()

	go func() {
		fr := &frameReader{to: 2}
		for {
			if _, err := fr.readFrame(b); err != nil {
				return
			}
			if _, _, _, err := fr.decode(); err != nil {
				return
			}
		}
	}()
	// The warm-mesh path reuses one writer per endpoint across every frame of
	// every epoch, so both writes share it here.
	w := wire.NewWriter(64)
	if err := writeFrame(a, w, 50*time.Millisecond, 0, 1, 1, 1, nil); err != nil {
		t.Fatalf("first write: %v", err)
	}
	// Sleep past the first deadline, then write with no timeout; a leaked
	// deadline would fail this write immediately.
	time.Sleep(80 * time.Millisecond)
	if err := writeFrame(a, w, 0, 0, 1, 2, 1, nil); err != nil {
		t.Fatalf("second write hit a stale deadline: %v", err)
	}
}

// TestWriteFrameWriterReuse pins the zero-alloc writer contract across a warm
// mesh's lifetime: a single endpoint writer must produce byte-identical frames
// whether fresh or reused, including across epoch bumps.
func TestWriteFrameWriterReuse(t *testing.T) {
	capture := func(w *wire.Writer, epoch uint64, phase int, msgs []sim.Envelope) []byte {
		a, b := net.Pipe()
		defer func() { _ = a.Close() }()
		defer func() { _ = b.Close() }()
		got := make(chan []byte, 1)
		go func() {
			buf := make([]byte, maxFrame)
			n, _ := b.Read(buf)
			got <- buf[:n]
		}()
		if err := writeFrame(a, w, 0, 0, epoch, phase, 1, msgs); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		return <-got
	}

	msgs := []sim.Envelope{{From: 1, To: 0, Phase: 3, Payload: []byte("payload"), Signers: []ident.ProcID{2}, SigTotal: 1}}
	shared := wire.NewWriter(16)
	first := append([]byte(nil), capture(shared, 4, 3, msgs)...)
	// Interleave an unrelated frame (different epoch/phase) on the same writer.
	_ = capture(shared, 5, 9, nil)
	second := capture(shared, 4, 3, msgs)
	fresh := capture(wire.NewWriter(16), 4, 3, msgs)
	if string(first) != string(second) || string(first) != string(fresh) {
		t.Fatalf("reused writer diverged:\n first %x\nsecond %x\n fresh %x", first, second, fresh)
	}
}

// testPeer builds processor 0's peer of a bare n-processor mesh — no
// sockets, an engine whose nodes noteFrame/waitPhase never step — reset for
// epoch 1 under cfg.
func testPeer(t *testing.T, n int, timeout time.Duration, cfg peerConfig) *peer {
	t.Helper()
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = idleNode{}
	}
	m := &Mesh{n: n, netCfg: Net{PhaseTimeout: timeout}}
	if err := m.eng.Reset(sim.Config{N: n, T: cfg.t, Phases: 4, Faults: cfg.faults}, nodes); err != nil {
		t.Fatal(err)
	}
	p := newPeer(m, 0, 0)
	m.peers = []*peer{p}
	p.reset(1, cfg)
	return p
}

type idleNode struct{}

func (idleNode) Step(*sim.Context, []sim.Envelope) error { return nil }
func (idleNode) Decide() (ident.Value, bool)             { return 0, false }

// TestNoteFrameLateDrop pins the guard that lets two phase slots serve a
// whole run: a frame for a phase waitPhase has already closed out must be
// discarded, not written into the slot (which by then belongs to phase k+2),
// while a frame one phase ahead of the barrier — a fast neighbour — is kept.
func TestNoteFrameLateDrop(t *testing.T) {
	ctx := context.Background()
	p := testPeer(t, 3, 10*time.Millisecond, peerConfig{t: 2})
	env := func(phase int, tag string) []sim.Envelope {
		return []sim.Envelope{{From: 2, To: 0, Phase: phase, Payload: []byte(tag)}}
	}
	p.noteFrame(1, 1, 1, nil)
	p.noteFrame(1, 2, 2, env(2, "early")) // before phase 1 closes
	p.noteFrame(1, 1, 2, nil)
	p.noteFrame(1, 4, 2, env(4, "too far")) // would land in phase 2's slot
	if inbox, err := p.waitPhase(ctx, 1); err != nil || len(inbox) != 0 {
		t.Fatalf("phase 1: inbox %v, err %v", inbox, err)
	}

	// A straggler delivers phase 1 again after the phase was closed out.
	p.noteFrame(1, 1, 2, env(1, "late"))
	p.mu.Lock()
	for i, buf := range p.bufs {
		heard := 0
		for _, h := range buf.heard {
			if h {
				heard++
			}
		}
		if want := 1 - i; buf.arrived != want || heard != want { // only phase 2's slot, bufs[0], holds a frame
			t.Errorf("slot %d after the late frame: arrived=%d heard=%d", i, buf.arrived, heard)
		}
	}
	p.mu.Unlock()

	p.noteFrame(1, 2, 1, nil)
	inbox, err := p.waitPhase(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 1 || string(inbox[0].Payload) != "early" {
		t.Fatalf("phase 2 inbox %+v, want the one early frame", inbox)
	}
}

// TestNoteFrameFaultTransforms drives the four frame-layer verdicts through
// noteFrame directly: drop empties but still arrives, delay stashes for the
// due phase, dup doubles, reorder reverses.
func TestNoteFrameFaultTransforms(t *testing.T) {
	spec, err := faultnet.ParseSpec("drop=1->0@1;delay=2->0@1+1;dup=1->0@2;reorder=2->0@2")
	if err != nil {
		t.Fatal(err)
	}
	plan := faultnet.MustCompile(spec, 7)
	p := testPeer(t, 4, 10*time.Millisecond, peerConfig{t: 3, faults: plan})

	env := func(from ident.ProcID, phase int, tag string) sim.Envelope {
		return sim.Envelope{From: from, To: 0, Phase: phase, Payload: []byte(tag)}
	}

	// Phase 1: 1->0 dropped, 2->0 delayed one phase, 3->0 untouched.
	p.noteFrame(1, 1, 1, []sim.Envelope{env(1, 1, "dropped")})
	p.noteFrame(1, 1, 2, []sim.Envelope{env(2, 1, "held")})
	p.noteFrame(1, 1, 3, []sim.Envelope{env(3, 1, "clean")})
	inbox, err := p.waitPhase(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox) != 1 || string(inbox[0].Payload) != "clean" {
		t.Fatalf("phase 1 inbox: %+v", inbox)
	}

	// Phase 2: 1->0 duplicated, 2->0 reordered; the held phase-1 message is
	// due now and must sort after sender 2's current traffic.
	p.noteFrame(1, 2, 1, []sim.Envelope{env(1, 2, "twice")})
	p.noteFrame(1, 2, 2, []sim.Envelope{env(2, 2, "b"), env(2, 2, "a")})
	p.noteFrame(1, 2, 3, nil)
	inbox, err = p.waitPhase(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range inbox {
		got = append(got, string(e.Payload))
	}
	want := []string{"twice", "twice", "a", "b", "held"}
	if len(got) != len(want) {
		t.Fatalf("phase 2 inbox %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase 2 inbox %v, want %v", got, want)
		}
	}
}

// TestDialPeerCtxCancel pins the ctx-aware dial loop: cancelling the context
// mid-backoff must abort the dial promptly instead of burning the full 5s
// retry budget against a dead address.
func TestDialPeerCtxCancel(t *testing.T) {
	// A just-closed listener's address refuses connections, sending dialPeer
	// into its backoff loop.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	conn, err := dialPeer(ctx, addr, rand.New(rand.NewSource(1)))
	if conn != nil {
		_ = conn.Close()
		t.Fatal("dial to a closed listener succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("dial ignored cancellation for %v", elapsed)
	}
}
