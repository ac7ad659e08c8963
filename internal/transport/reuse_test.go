package transport

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// hookProtocol is alg1 with a hook called at the start of every Step, on the
// goroutine stepping the processor, before the node's own Step.
type hookProtocol struct {
	alg1.Protocol
	hook func(id ident.ProcID, phase int, inbox []sim.Envelope)
}

func (p hookProtocol) NewRun(n, t int) (protocol.Builder, error) {
	run, err := p.Protocol.NewRun(n, t)
	return hookRun{run, p.hook}, err
}

type hookRun struct {
	protocol.Builder
	hook func(ident.ProcID, int, []sim.Envelope)
}

func (r hookRun) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	node, err := r.Builder.NewNode(cfg)
	return hookNode{node, cfg.ID, r.hook}, err
}

type hookNode struct {
	sim.Node
	id   ident.ProcID
	hook func(ident.ProcID, int, []sim.Envelope)
}

func (n hookNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	n.hook(n.id, ctx.Phase(), inbox)
	return n.Node.Step(ctx, inbox)
}

// TestReusedPeerDropsStaleEpoch: a reader that loaded epoch e's state can
// hand its frame to a peer that epoch e+1 has already reset, because the
// peers outlive epochs. noteFrame drops it by its epoch: on a bare peer the
// slot stays untouched, and on a mesh, a frame of the epoch before given to a
// peer in the middle of the next leaves that epoch's trace, decisions and
// report equal to a fresh mesh's. A dropped frame carves nothing.
func TestReusedPeerDropsStaleEpoch(t *testing.T) {
	p := testPeer(t, 3, time.Second, peerConfig{t: 1})
	p.reset(2, peerConfig{t: 1})
	env := []sim.Envelope{{From: 1, To: 0, Phase: 1, Payload: []byte("stale"), Signers: []ident.ProcID{1}}}
	carved := func() [2]int { return [2]int{p.payloads.Mark(), p.signers.Mark()} }
	before := carved()
	if allocs := testing.AllocsPerRun(10, func() { p.noteFrame(1, 1, 1, env) }); allocs != 0 || carved() != before {
		t.Fatalf("a frame of epoch 1 carved on a peer of epoch 2: %v allocations, blocks at %v, were at %v", allocs, carved(), before)
	}
	if buf := &p.bufs[1]; buf.arrived != 0 || buf.heard[1] || len(buf.frames[1]) != 0 {
		t.Fatalf("a frame of epoch 1 reached a peer of epoch 2: arrived=%d heard=%v frames=%v", buf.arrived, buf.heard, buf.frames[1])
	}
	p.noteFrame(2, 1, 1, env)
	if buf := &p.bufs[1]; buf.arrived != 1 || !buf.heard[1] || len(buf.frames[1]) != 1 {
		t.Fatalf("a frame of the peer's own epoch was not kept: arrived=%d", buf.arrived)
	}
	if carved() == before {
		t.Fatal("a frame of the peer's own epoch carved nothing")
	}

	ctx := context.Background()
	var m *Mesh
	inject := false
	poison := []sim.Envelope{{From: 2, To: 1, Phase: 1, Payload: []byte("stale"), SigTotal: 1}}
	proto := hookProtocol{hook: func(id ident.ProcID, phase int, _ []sim.Envelope) {
		if inject && id == 0 && phase == 1 {
			m.peers[1].noteFrame(m.epoch-1, 1, 2, poison)
		}
	}}
	run := func(mesh *Mesh, seed int64) (*Result, []trace.Event) {
		t.Helper()
		buf := trace.NewBuffer()
		cfg := core.Config{Protocol: proto, N: 3, T: 1, Value: ident.V1, Seed: seed, Trace: buf}
		res, err := mesh.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.Events()
	}
	var err error
	if m, err = NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fresh, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	run(m, 1)
	inject = true
	got, gotEvents := run(m, 2)
	inject = false
	want, wantEvents := run(fresh, 2)
	if !reflect.DeepEqual(got.Decisions, want.Decisions) || !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("epoch 2 with a stale frame: decisions %v report %+v, fresh mesh %v %+v", got.Decisions, got.Report, want.Decisions, want.Report)
	}
	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Errorf("epoch 2 with a stale frame traced %d events, a fresh mesh %d, or in another order", len(gotEvents), len(wantEvents))
	}
}

// TestKeptPayloadsOutliveEpochs: the sim.Node rule that delivered payloads
// and signer lists are never rewritten holds on a warm mesh across epochs.
// Every node keeps what it is handed in epoch 1, and after each later epoch —
// other values, other seeds, the same readers and peers — those bytes are
// unchanged.
func TestKeptPayloadsOutliveEpochs(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 5, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	type kept struct {
		env     sim.Envelope // aliases what the node was handed
		payload []byte       // a copy taken in epoch 1
		signers []ident.ProcID
	}
	var mu sync.Mutex
	var all []kept
	epoch := 1
	proto := hookProtocol{hook: func(_ ident.ProcID, _ int, inbox []sim.Envelope) {
		if epoch != 1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, e := range inbox {
			all = append(all, kept{e, bytes.Clone(e.Payload), slices.Clone(e.Signers)})
		}
	}}
	for ; epoch <= 3; epoch++ {
		value := ident.Value(epoch % 2)
		res, err := m.Run(ctx, core.Config{Protocol: proto, N: 5, T: 2, Value: value, Seed: int64(epoch)})
		if err != nil {
			t.Fatal(err)
		}
		meshAgreement(t, res, value)
		if len(all) == 0 {
			t.Fatal("no node was handed anything in epoch 1")
		}
		for i, k := range all {
			if !bytes.Equal(k.env.Payload, k.payload) || !slices.Equal(k.env.Signers, k.signers) {
				t.Fatalf("after epoch %d, message %d kept from epoch 1 reads %x %v, was %x %v",
					epoch, i, k.env.Payload, k.env.Signers, k.payload, k.signers)
			}
		}
	}
}

// TestReusedSlotsPoisonInRaceBuilds: what a node keeps past its epoch reads
// as no processor's once the next epoch has reset the mesh — poisoned in
// race builds (sig.Poison), zeroed elsewhere. Processor 1 keeps its last
// non-empty inbox of epoch 1 and views over the full capacity of its peer's
// outgoing rows and of the barrier slot of even phases; at its first step of
// epoch 2 (nothing sent yet, no frame of phase 2 can have arrived) every
// envelope in them must read recycled.
func TestReusedSlotsPoisonInRaceBuilds(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 3, Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var kept []sim.Envelope
	checked := 0
	epoch := 1
	proto := hookProtocol{hook: func(id ident.ProcID, phase int, inbox []sim.Envelope) {
		if id != 1 {
			return
		}
		if epoch == 1 {
			if len(inbox) > 0 {
				kept = inbox // the last non-empty one stays
			}
			return
		}
		if phase != 1 {
			return
		}
		p := m.peers[1]
		views := [][]sim.Envelope{kept}
		for _, row := range p.outgoing {
			views = append(views, row[:cap(row)])
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, row := range p.bufs[0].frames {
			views = append(views, row[:cap(row)])
		}
		for _, view := range views {
			for _, e := range view {
				checked++
				poisoned := e.From == ident.None && e.To == ident.None && e.Payload == nil
				zeroed := reflect.DeepEqual(e, sim.Envelope{})
				if poisoned != sig.Poison || zeroed == sig.Poison {
					t.Errorf("race build %v: an envelope kept past its epoch reads %+v", sig.Poison, e)
				}
			}
		}
	}}
	for ; epoch <= 2; epoch++ {
		res, err := m.Run(ctx, core.Config{Protocol: proto, N: 3, T: 1, Value: ident.V1, Seed: int64(epoch)})
		if err != nil {
			t.Fatal(err)
		}
		meshAgreement(t, res, ident.V1)
		if epoch == 1 && len(kept) == 0 {
			t.Fatal("processor 1 was handed nothing in epoch 1")
		}
	}
	if checked == 0 {
		t.Fatal("no slot was checked")
	}
}

// TestMeshCloseLeavesNoGoroutine: the peers now live as long as the mesh, so
// Close must end everything the mesh started — accept loops, connection
// readers, the link-delay waker — whatever its epochs did: a completed one,
// one cancelled in its link-delay holds, and one refused up front.
func TestMeshCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := NewMesh(context.Background(), 3, Net{PhaseTimeout: 10 * time.Second, LinkDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), meshConfig(ident.V1, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel) // inside phase 1's hold
	if _, err := m.Run(ctx, meshConfig(ident.V0, 2)); err == nil {
		// The instance may finish before the cancel lands; either is fine.
		t.Log("the cancelled epoch completed first")
	}
	cfg := meshConfig(ident.V1, 3)
	cfg.Rushing = true
	if _, err := m.Run(context.Background(), cfg); err == nil {
		t.Fatal("a mesh ran a rushing configuration")
	}
	m.Close()
	// Close waits for every goroutine's last statement, not for its exit.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			var left []string
			for _, g := range strings.Split(string(stacks), "\n\n") {
				if strings.Contains(g, "byzex/internal/transport.") && !strings.Contains(g, "TestMeshCloseLeavesNoGoroutine") {
					left = append(left, g)
				}
			}
			t.Fatalf("%d goroutines after Close, %d before; the mesh's:\n%s", runtime.NumGoroutine(), before, strings.Join(left, "\n\n"))
		}
	}
}
