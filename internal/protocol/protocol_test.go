package protocol_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

func validCfg(t *testing.T) protocol.NodeConfig {
	t.Helper()
	scheme := sig.NewHMAC(4, 1)
	signer, err := scheme.Signer(1)
	if err != nil {
		t.Fatal(err)
	}
	return protocol.NodeConfig{
		ID: 1, N: 4, T: 1, Transmitter: 0, Value: ident.V1,
		Signer: signer, Verifier: scheme,
	}
}

func TestNodeConfigValidate(t *testing.T) {
	good := validCfg(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*protocol.NodeConfig){
		func(c *protocol.NodeConfig) { c.N = 0 },
		func(c *protocol.NodeConfig) { c.T = -1 },
		func(c *protocol.NodeConfig) { c.ID = 9 },
		func(c *protocol.NodeConfig) { c.Transmitter = 9 },
		func(c *protocol.NodeConfig) { c.Signer = nil },
		func(c *protocol.NodeConfig) { c.Verifier = nil },
	}
	for i, mut := range mutations {
		c := validCfg(t)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Signer for the wrong identity.
	c := validCfg(t)
	scheme := sig.NewHMAC(4, 1)
	wrong, _ := scheme.Signer(2)
	c.Signer = wrong
	if err := c.Validate(); err == nil {
		t.Error("mismatched signer accepted")
	}
}

func TestIsTransmitter(t *testing.T) {
	c := validCfg(t)
	if c.IsTransmitter() {
		t.Fatal("non-transmitter misreported")
	}
	c.ID = 0
	if !c.IsTransmitter() {
		t.Fatal("transmitter misreported")
	}
}

func TestSendHelpersAccounting(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	s0, _ := scheme.Signer(0)
	s1, _ := scheme.Signer(1)
	body := sig.ValueBody(ident.V1)
	chain := sig.Append(s1, body, sig.Append(s0, body, nil))

	var sent []sim.Envelope
	ctx := sim.NewContext(0, 4, 1, 0, 1, 3, func(e sim.Envelope) { sent = append(sent, e) })

	if err := protocol.Send(ctx, 2, []byte("x"), chain); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Fatalf("sent %d", len(sent))
	}
	if sent[0].SigTotal != 2 || len(sent[0].Signers) != 2 {
		t.Fatalf("accounting %d/%d", sent[0].SigTotal, len(sent[0].Signers))
	}

	sent = nil
	if err := protocol.Broadcast(ctx, []byte("y"), chain, chain); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 3 { // everyone but self
		t.Fatalf("broadcast sent %d", len(sent))
	}
	// Two copies of the chain: 4 links total, 2 distinct signers.
	if sent[0].SigTotal != 4 || len(sent[0].Signers) != 2 {
		t.Fatalf("multi-chain accounting %d/%d", sent[0].SigTotal, len(sent[0].Signers))
	}

	sent = nil
	if err := protocol.SendToAll(ctx, []ident.ProcID{0, 1, 3}, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 2 { // self (0) skipped
		t.Fatalf("sendToAll sent %d", len(sent))
	}
	if sent[0].SigTotal != 0 || len(sent[0].Signers) != 0 {
		t.Fatal("chainless accounting wrong")
	}
}

// TestSendHelpersSignersSortedAndCheap pins the shape of Envelope.Signers —
// ascending, duplicate-free, whatever order and multiplicity the chains have —
// and that deriving it costs one allocation (the list itself), not a map and
// a reflection-driven sort.
func TestSendHelpersSignersSortedAndCheap(t *testing.T) {
	scheme := sig.NewHMAC(8, 1)
	body := sig.ValueBody(ident.V1)
	var chain sig.Chain
	for _, id := range []ident.ProcID{5, 2, 7, 2, 0} {
		s, _ := scheme.Signer(id)
		chain = sig.Append(s, body, chain)
	}

	var last sim.Envelope
	ctx := sim.NewContext(1, 8, 2, 0, 1, 3, func(e sim.Envelope) { last = e })
	if err := protocol.SendToAll(ctx, []ident.ProcID{3, 4}, []byte("x"), chain, chain[:2]); err != nil {
		t.Fatal(err)
	}
	want := []ident.ProcID{0, 2, 5, 7}
	if last.SigTotal != 7 || len(last.Signers) != len(want) {
		t.Fatalf("accounting %d/%v, want 7/%v", last.SigTotal, last.Signers, want)
	}
	for i := range want {
		if last.Signers[i] != want[i] {
			t.Fatalf("signers %v, want %v", last.Signers, want)
		}
	}

	payload := []byte("x")
	if n := testing.AllocsPerRun(100, func() {
		if err := protocol.Send(ctx, 3, payload, chain); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Send allocates %v times, want at most 1 (the signer list)", n)
	}
}

// chainSender is every node of its run: processor 0 sends, at phase 1, one
// message per chain to processor 1, whose phase-2 inbox is kept.
type chainSender struct {
	chains  []sig.Chain
	payload []byte
	got     []sim.Envelope
}

func (c *chainSender) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	if ctx.ID() == 1 {
		c.got = append(c.got, inbox...)
	}
	if ctx.ID() != 0 || ctx.Phase() != 1 {
		return nil
	}
	for _, ch := range c.chains {
		if err := protocol.Send(ctx, 1, c.payload, ch); err != nil {
			return err
		}
	}
	return nil
}

func (c *chainSender) Decide() (ident.Value, bool) { return 0, true }

// TestEngineKeepsSignerListsApart: under the in-memory engine the signer
// lists are carved from the engine's blocks and built in its one scratch, so
// the thousand lists of a phase are a few allocations — and each must still
// be its own: sorted, distinct, and untouched by the lists built after it.
func TestEngineKeepsSignerListsApart(t *testing.T) {
	scheme := sig.NewHMAC(64, 1)
	body := sig.ValueBody(ident.V1)
	const n = 64
	node := &chainSender{payload: []byte("x")}
	nodes := make([]sim.Node, n)
	for i := range nodes {
		nodes[i] = node
	}
	for k := 0; k < 1000; k++ {
		var chain sig.Chain
		for j := 0; j <= k%7; j++ {
			s, _ := scheme.Signer(ident.ProcID((k*31 + j*17) % 64))
			chain = sig.Append(s, body, chain)
		}
		node.chains = append(node.chains, chain)
	}
	var eng *sim.Engine
	allocs := testing.AllocsPerRun(1, func() {
		node.got = node.got[:0]
		var err error
		eng = new(sim.Engine)
		if err = eng.Reset(sim.Config{N: n, Phases: 1}, nodes); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if len(node.got) != len(node.chains) {
		t.Fatalf("delivered %d of %d", len(node.got), len(node.chains))
	}
	for k, env := range node.got {
		want := ident.NewSet(node.chains[k].Signers()...).Sorted()
		if !slices.Equal(env.Signers, want) || env.SigTotal != len(node.chains[k]) {
			t.Fatalf("message %d: signers %v total %d, want %v total %d", k, env.Signers, env.SigTotal, want, len(node.chains[k]))
		}
	}
	if allocs > 100 {
		t.Errorf("a run of %d signed sends made %v allocations, want one per block of envelopes or lists", len(node.chains), allocs)
	}
}

func TestGroupIndexesByArithmeticOrMap(t *testing.T) {
	for _, members := range [][]ident.ProcID{
		ident.Range(9),
		{4, 5, 6, 7},
		{7, 3, 9, 0},
		{0, 1, 3, 2},
		{},
	} {
		g, err := protocol.NewGroup(members)
		if err != nil {
			t.Fatalf("%v: %v", members, err)
		}
		if g.Len() != len(members) {
			t.Fatalf("%v: Len %d", members, g.Len())
		}
		for i, id := range members {
			if got, ok := g.Index(id); !ok || got != i {
				t.Errorf("%v: Index(%v) = %d, %v, want %d", members, id, got, ok, i)
			}
		}
		for _, out := range []ident.ProcID{-1, 8, 10, 100} {
			if _, ok := g.Index(out); ok != slices.Contains(members, out) {
				t.Errorf("%v: Index(%v) ok = %v", members, out, ok)
			}
		}
		if _, err := g.IndexOf(50); !errors.Is(err, protocol.ErrBadParams) {
			t.Errorf("%v: IndexOf(outsider) = %v, want ErrBadParams", members, err)
		}
	}
	for _, members := range [][]ident.ProcID{{0, 1, 1}, {2, 0, 2}, {0, 1, 2, 0}} {
		if _, err := protocol.NewGroup(members); !errors.Is(err, protocol.ErrBadParams) {
			t.Errorf("%v: err = %v, want a duplicate-member ErrBadParams", members, err)
		}
	}
	if n := testing.AllocsPerRun(10, func() { _, _ = protocol.NewGroup(ident.Range(9)[2:]) }); n > 1 {
		t.Errorf("indexing a contiguous group allocates %v times beyond the list itself", n-1)
	}
}
