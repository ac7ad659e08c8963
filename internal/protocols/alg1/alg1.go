// Package alg1 implements Algorithm 1 of the paper (Theorem 3): an
// authenticated Byzantine Agreement protocol for n = 2t+1 processors that
// finishes in t+2 phases and sends at most 2t² + 2t messages.
//
// The 2t non-transmitter processors are split into sets A and B of size t.
// Communication follows the graph G formed by the complete bipartite graph
// on (A, B) plus edges from the transmitter q to everybody. A "correct
// 1-message" received at phase k is the value 1 carrying a signature chain
// that, together with the receiver, forms a simple path of length k from q
// through alternating sides of G.
//
//	Phase 1:        the transmitter signs and sends its value to everybody.
//	Phases 2..t+2:  on first receiving a correct 1-message, a processor
//	                signs it and sends it to everybody on the other side.
//	Decision:       1 if a correct 1-message arrived by phase t+2, else 0.
//
// One state machine, Core, runs both this binary rule and the multi-valued
// rule of MultiProtocol. The Core type is embeddable so Algorithms 2, 3 and
// 5 can run it among a subgroup of a larger system.
package alg1

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// Core is the per-processor state machine, operating within an explicit
// group (group[0] is the transmitter; the remaining 2t members split into
// A = group[1..t] and B = group[t+1..2t]).
type Core struct {
	group    protocol.Group
	t        int
	me       int // my index within group
	value    ident.Value
	signer   sig.Signer
	verifier sig.Verifier

	// multi selects the multi-valued rule: a correct message of any value
	// counts, and up to two values are kept. The binary rule counts only
	// the value 1 and keeps the first such message.
	multi bool
	// kept[:nkept] holds the first correct message of each kept value, in
	// arrival order; kept[:relayed] have been relayed.
	kept           [2]sig.SignedValue
	nkept, relayed int
}

// NewCore returns the Algorithm 1 state machine for group member me under
// the binary rule, to be stored where it lives: a node, or a run's block. The
// group must have exactly 2t+1 members, and the core keeps the slice: the
// caller must not write to it afterwards. value is used only by the
// transmitter (group[0]).
func NewCore(group []ident.ProcID, t int, me ident.ProcID, value ident.Value, signer sig.Signer, verifier sig.Verifier) (Core, error) {
	if len(group) != 2*t+1 {
		return Core{}, fmt.Errorf("%w: alg1 needs |group| = 2t+1, got %d for t=%d", protocol.ErrBadParams, len(group), t)
	}
	g, err := protocol.NewGroup(group)
	if err != nil {
		return Core{}, err
	}
	mi, err := g.IndexOf(me)
	if err != nil {
		return Core{}, err
	}
	return Core{
		group:    g,
		t:        t,
		me:       mi,
		value:    value,
		signer:   signer,
		verifier: verifier,
	}, nil
}

// Group returns the group the core runs in and this member's index in it, for
// an algorithm built on top (Algorithm 2) that addresses the same group.
func (c *Core) Group() (protocol.Group, int) { return c.group, c.me }

// LastPhase returns the last phase during which Algorithm 1 sends (t+2).
// One further delivery-only step completes the decision.
func LastPhase(t int) int { return t + 2 }

// side classifies a group index: 0 = transmitter, 1 = set A, 2 = set B.
func (c *Core) side(idx int) int {
	switch {
	case idx == 0:
		return 0
	case idx <= c.t:
		return 1
	default:
		return 2
	}
}

// otherSide returns the members of the opposite non-transmitter side.
func (c *Core) otherSide() []ident.ProcID {
	if c.side(c.me) == 1 {
		return c.group.Members()[c.t+1:]
	}
	return c.group.Members()[1 : c.t+1]
}

// isCorrectMessage validates a payload received at relative phase k (i.e.
// sent during phase k) against the "correct message" predicate for this
// receiver, its chain carved from slab. Under the binary rule only a correct
// 1-message passes.
func (c *Core) isCorrectMessage(slab *sig.Slab, payload []byte, from ident.ProcID, k int) (sig.SignedValue, bool) {
	sv, err := slab.Unmarshal(payload)
	if err != nil || (!c.multi && sv.Value != ident.V1) || len(sv.Chain) != k {
		return sig.SignedValue{}, false
	}
	// The chain plus this receiver must form a simple path of length k from
	// the transmitter through G.
	prev := -1
	for i, link := range sv.Chain {
		idx, ok := c.group.Index(link.Signer)
		if !ok || sv.Chain[:i].Has(link.Signer) {
			return sig.SignedValue{}, false
		}
		s := c.side(idx)
		switch {
		case i == 0:
			if s != 0 { // path starts at the transmitter
				return sig.SignedValue{}, false
			}
		case s == 0: // transmitter cannot reappear
			return sig.SignedValue{}, false
		case i > 1 && s == prev: // must alternate sides after the first hop
			return sig.SignedValue{}, false
		}
		prev = s
	}
	// The edge (last signer -> receiver) must exist in G and keep the path
	// simple: the receiver must not already be on it.
	if sv.Chain.Has(c.group.Members()[c.me]) {
		return sig.SignedValue{}, false
	}
	if k > 1 && c.side(c.me) == prev {
		return sig.SignedValue{}, false
	}
	// The immediate sender must be the last signer (paths are relayed hop
	// by hop; accepting detours would let faulty processors spend correct
	// processors' relays on malformed routes).
	if from != sv.Chain[len(sv.Chain)-1].Signer {
		return sig.SignedValue{}, false
	}
	if err := sv.Verify(c.verifier); err != nil {
		return sig.SignedValue{}, false
	}
	return sv, true
}

// keep records sv unless its value is kept already or both slots are full
// (two circulating values already force the default).
func (c *Core) keep(sv sig.SignedValue) {
	for _, k := range c.kept[:c.nkept] {
		if k.Value == sv.Value {
			return
		}
	}
	if c.nkept < len(c.kept) {
		c.kept[c.nkept] = sv
		c.nkept++
	}
}

// Step advances the state machine. phase is the relative phase (1-based);
// inbox must contain only messages addressed to this member that were sent
// during phase-1 by other group members (callers embedding the core filter
// accordingly). Messages are sent through ctx at the current engine phase,
// which embedders must keep aligned with the relative phase.
func (c *Core) Step(ctx *sim.Context, inbox []sim.Envelope, phase int) error {
	slab := ctx.Slab()
	if c.me == 0 {
		// Transmitter: sign and send the value to everybody at phase 1.
		if phase == 1 {
			sv := slab.SignValue(c.signer, c.value)
			if err := protocol.SendToAll(ctx, c.group.Members()[1:], slab.Marshal(sv), sv.Chain); err != nil {
				return err
			}
		}
		return nil
	}

	// Scan the inbox (messages sent during phase-1) for correct messages.
	// The binary rule stops once it holds its one value; the multi-valued
	// rule verifies every envelope, even with both slots full. A rejected
	// message's links are handed back.
	if phase > 1 {
		for _, env := range inbox {
			if !c.multi && c.nkept == 1 {
				break
			}
			mark := slab.Mark()
			if sv, ok := c.isCorrectMessage(slab, env.Payload, env.From, phase-1); ok {
				c.keep(sv)
			} else {
				slab.Rewind(mark)
			}
		}
	}

	// Relay each kept message once: sign it and send it to the other side,
	// within the sending window (phases 2..t+2).
	for ; c.relayed < c.nkept && phase >= 2 && phase <= c.t+2; c.relayed++ {
		signed := slab.CoSign(c.signer, c.kept[c.relayed])
		if err := protocol.SendToAll(ctx, c.otherSide(), slab.Marshal(signed), signed.Chain); err != nil {
			return err
		}
	}
	return nil
}

// Decide implements the decision function: the transmitter keeps its own
// value; everybody else decides the one value a correct message arrived for
// by phase t+2, and the default 0 when there is none (or, under the
// multi-valued rule, two).
func (c *Core) Decide() (ident.Value, bool) {
	if c.me == 0 {
		return c.value, true
	}
	if c.nkept == 1 {
		return c.kept[0].Value, true
	}
	return ident.V0, true
}

// Committed returns the value this member has committed to (identical to
// Decide; Algorithm 2 reads it once Algorithm 1 has completed).
func (c *Core) Committed() ident.Value {
	v, _ := c.Decide()
	return v
}

// ---------------------------------------------------------------------------
// Protocol wrapper (standalone use: the group is the whole system).

// Protocol runs Algorithm 1 over the entire system (n = 2t+1, transmitter
// is processor 0).
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "alg1" }

// Check implements protocol.Protocol: Algorithm 1 requires n = 2t+1, t ≥ 1.
func (Protocol) Check(n, t int) error {
	if t < 1 || n != 2*t+1 {
		return fmt.Errorf("%w: alg1 requires n = 2t+1 with t ≥ 1 (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (Protocol) Phases(_, t int) int { return LastPhase(t) }

// NewRun implements protocol.Protocol.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) { return newRun(p, n, t, false) }

// newRun returns the builder of a run of standalone nodes, each holding its
// core, under the multi-valued rule when multi.
func newRun(p protocol.Protocol, n, t int, multi bool) (protocol.Builder, error) {
	return protocol.Uniform(p, n, t, func(nd *node, cfg protocol.NodeConfig) error {
		if !multi {
			if err := cfg.RequireBinaryValue(); err != nil {
				return err
			}
		}
		if cfg.Transmitter != 0 {
			return fmt.Errorf("%w: %s assumes transmitter 0", protocol.ErrBadParams, p.Name())
		}
		core, err := NewCore(ident.Range(cfg.N), cfg.T, cfg.ID, cfg.Value, cfg.Signer, cfg.Verifier)
		core.multi = multi
		nd.core = core
		return err
	})
}

type node struct {
	core Core
}

var _ sim.Node = (*node)(nil)

func (n *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	return n.core.Step(ctx, inbox, ctx.Phase())
}

func (n *node) Decide() (ident.Value, bool) { return n.core.Decide() }
