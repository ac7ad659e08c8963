package protocol_test

import (
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
