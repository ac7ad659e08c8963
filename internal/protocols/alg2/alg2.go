// Package alg2 implements Algorithm 2 of the paper (Theorem 4): Algorithm 1
// followed by 2t+1 "increasing message" phases, after which every correct
// processor not only agrees on the common value but also *possesses a
// one-message proof for the outside world* — the common value with at least
// t signatures of other processors appended. No processor (faulty or not)
// can hold such a proof for any other value. The whole protocol runs in
// 3t+3 phases and sends at most 5t² + 5t messages.
//
// Processors carry labels 1..2t+1 (group order; the transmitter is label
// 1). A message received by p(j) after phase t+2 is "increasing" if it
// consists of p(j)'s committed value with signatures of processors with
// labels less than j in increasing order. At phase t+2+j processor p(j)
// signs its best increasing message m(j) and sends it to everybody if it
// already carried ≥ t signatures, otherwise to the next t+1 labels.
package alg2

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// Core is the embeddable per-processor state machine. It wraps an
// alg1.Core; relative phases 1..t+2 drive Algorithm 1 and phases
// t+3..3t+3 the increasing-message rounds.
type Core struct {
	inner    alg1.Core
	group    protocol.Group
	t        int
	me       int
	signer   sig.Signer
	verifier sig.Verifier

	committed    ident.Value
	hasCommitted bool
	best         sig.SignedValue // best increasing message so far
	hasBest      bool
	proof        sig.SignedValue // best proof-grade message so far
	hasProof     bool
	acted        bool
}

// NewCore returns the Algorithm 2 state machine for group member me, to be
// stored where it lives (see alg1.NewCore).
func NewCore(group []ident.ProcID, t int, me ident.ProcID, value ident.Value, signer sig.Signer, verifier sig.Verifier) (Core, error) {
	inner, err := alg1.NewCore(group, t, me, value, signer, verifier)
	if err != nil {
		return Core{}, err
	}
	g, mi := inner.Group()
	return Core{
		inner:    inner,
		group:    g,
		t:        t,
		me:       mi,
		signer:   signer,
		verifier: verifier,
	}, nil
}

// LastPhase returns Algorithm 2's final sending phase, 3t+3.
func LastPhase(t int) int { return 3*t + 3 }

// commit freezes the Algorithm 1 decision once phases 1..t+2 are complete.
func (c *Core) commit() {
	if c.hasCommitted {
		return
	}
	c.committed = c.inner.Committed()
	c.hasCommitted = true
}

// classify inspects an inbound payload during the increasing-message
// rounds, its chain carved from slab, updating the best increasing message
// and the best proof; it reports whether it kept the message as either.
func (c *Core) classify(slab *sig.Slab, payload []byte) bool {
	sv, err := slab.Unmarshal(payload)
	if err != nil || sv.Value != c.committed || len(sv.Chain) == 0 {
		return false
	}
	if !sv.Chain.Distinct() {
		return false
	}
	// All signers must be group members.
	increasing := true
	prev := -1
	others := 0
	for _, l := range sv.Chain {
		idx, ok := c.group.Index(l.Signer)
		if !ok {
			return false
		}
		if idx != c.me {
			others++
		}
		if idx <= prev || idx >= c.me {
			increasing = false
		}
		prev = idx
	}
	if sv.Verify(c.verifier) != nil {
		return false
	}
	kept := false
	if increasing && (!c.hasBest || len(sv.Chain) > len(c.best.Chain)) {
		c.best, c.hasBest, kept = sv, true, true
	}
	if others >= c.t && (!c.hasProof || len(sv.Chain) > len(c.proof.Chain)) {
		c.proof, c.hasProof, kept = sv, true, true
	}
	return kept
}

// Step advances the state machine at the given relative phase (1-based).
func (c *Core) Step(ctx *sim.Context, inbox []sim.Envelope, phase int) error {
	if phase <= c.t+3 {
		if err := c.inner.Step(ctx, inbox, phase); err != nil {
			return err
		}
	}
	if phase < c.t+3 {
		return nil
	}
	c.commit()

	slab := ctx.Slab()
	for _, env := range inbox {
		if mark := slab.Mark(); !c.classify(slab, env.Payload) {
			slab.Rewind(mark)
		}
	}

	// Phase t+2+j, with j = label = index+1: our turn to sign and forward.
	if myTurn := c.t + 3 + c.me; phase == myTurn && !c.acted {
		c.acted = true
		m := sig.SignedValue{Value: c.committed}
		if c.hasBest {
			m = c.best
		}
		wide := len(m.Chain) >= c.t
		signed := slab.CoSign(c.signer, m)
		c.classifyOwn(signed)

		// A wide message goes to the whole group (SendToAll skips us), a
		// narrow one to the next t+1 labels: both are views of the group.
		targets := c.group.Members()
		if !wide {
			targets = targets[c.me+1 : min(c.me+c.t+2, c.group.Len())]
		}
		if err := protocol.SendToAll(ctx, targets, slab.Marshal(signed), signed.Chain); err != nil {
			return err
		}
	}
	return nil
}

// classifyOwn lets our own signed message count toward the proof (it
// carries our signature plus the chain we extended).
func (c *Core) classifyOwn(sv sig.SignedValue) {
	others := 0
	for _, l := range sv.Chain {
		if idx, ok := c.group.Index(l.Signer); ok && idx != c.me {
			others++
		}
	}
	if others >= c.t && (!c.hasProof || len(sv.Chain) > len(c.proof.Chain)) {
		c.proof, c.hasProof = sv, true
	}
}

// Decide returns the Algorithm 1 decision.
func (c *Core) Decide() (ident.Value, bool) { return c.inner.Decide() }

// Committed returns the committed common value (valid once phase t+2 has
// completed).
func (c *Core) Committed() ident.Value {
	c.commit()
	return c.committed
}

// Proof returns a one-message proof of the common value: the value carrying
// at least t signatures of processors other than this one (Theorem 4). The
// second result is false if no proof is held (which, for a correct
// processor after phase 3t+3, would be a protocol-correctness violation).
func (c *Core) Proof() (sig.SignedValue, bool) {
	if !c.hasProof {
		return sig.SignedValue{}, false
	}
	return c.proof, true
}

// VerifyProof checks a proof for the outside world: value v with at least
// t+1 distinct valid signatures of group members. Theorem 4 guarantees no
// such message exists for a value other than the common one.
func VerifyProof(sv sig.SignedValue, group []ident.ProcID, t int, verifier sig.Verifier) error {
	members := ident.NewSet(group...)
	var distinct ident.Set
	for _, l := range sv.Chain {
		if !members.Has(l.Signer) {
			return fmt.Errorf("alg2: proof signer %v not a group member", l.Signer)
		}
		distinct.Add(l.Signer)
	}
	if distinct.Len() < t+1 {
		return fmt.Errorf("alg2: proof has %d distinct signers, need %d", distinct.Len(), t+1)
	}
	if err := sv.Verify(verifier); err != nil {
		return fmt.Errorf("alg2: proof chain invalid: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Protocol wrapper (standalone use: the group is the whole system).

// Protocol runs Algorithm 2 over the entire system (n = 2t+1, transmitter
// is processor 0).
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "alg2" }

// Check implements protocol.Protocol.
func (Protocol) Check(n, t int) error {
	if t < 1 || n != 2*t+1 {
		return fmt.Errorf("%w: alg2 requires n = 2t+1 with t ≥ 1 (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (Protocol) Phases(_, t int) int { return LastPhase(t) }

// NewRun implements protocol.Protocol: every node holds its core.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	return protocol.Uniform(p, n, t, func(nd *node, cfg protocol.NodeConfig) error {
		if err := cfg.RequireBinaryValue(); err != nil {
			return err
		}
		if cfg.Transmitter != 0 {
			return fmt.Errorf("%w: alg2 assumes transmitter 0", protocol.ErrBadParams)
		}
		core, err := NewCore(ident.Range(cfg.N), cfg.T, cfg.ID, cfg.Value, cfg.Signer, cfg.Verifier)
		nd.core = core
		return err
	})
}

// Node is the standalone Algorithm 2 node; exported so tests and examples
// can read the proof after a run.
type node struct {
	core Core
}

var _ sim.Node = (*node)(nil)

func (n *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	return n.core.Step(ctx, inbox, ctx.Phase())
}

func (n *node) Decide() (ident.Value, bool) { return n.core.Decide() }

// Proof exposes the held proof (see Core.Proof).
func (n *node) Proof() (sig.SignedValue, bool) { return n.core.Proof() }

// ProofHolder is implemented by nodes that hold a transferable proof of the
// common value after the run.
type ProofHolder interface {
	Proof() (sig.SignedValue, bool)
}

var _ ProofHolder = (*node)(nil)
