// Chaos: a seeded randomized Byzantine strategy. Where the named adversaries
// (split-brain, silent, rushing) each target one proof's worst case, chaos
// samples the strategy space — random corruption choices, random equivocation
// and omission — to sweep for agreement violations the structured attacks
// miss. Deterministic per seed, so any violation it finds replays exactly.

package adversary

import (
	mrand "math/rand"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// Chaos is a randomized Byzantine strategy designed to explore the fault
// space: each corrupted processor keeps a correct inner node and, every
// phase, independently chooses to (a) behave correctly, (b) stay silent,
// (c) behave correctly toward a random subset only, (d) replay previously
// received genuine payloads to random recipients, or (e) spray garbage.
// All choices draw from the processor's own deterministic stream (see
// State), so a seed fully reproduces a run on either substrate. Used by the
// randomized sweep tests: no seed may ever produce disagreement among correct
// processors.
type Chaos struct{}

var _ Adversary = Chaos{}

// Name implements Adversary.
func (Chaos) Name() string { return "chaos" }

// Corrupt implements Adversary.
func (Chaos) Corrupt(n, t int, transmitter ident.ProcID, rng *mrand.Rand) ident.Set {
	// Random subset of size t, possibly including the transmitter.
	var out ident.Set
	perm := rng.Perm(n)
	for _, idx := range perm {
		if out.Len() >= t {
			break
		}
		out.Add(ident.ProcID(idx))
	}
	return out
}

// NewNode implements Adversary.
func (c Chaos) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	inner, err := env.Run.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	node := &chaosNode{inner: inner, rng: env.State.rng(cfg.ID)}
	// Forged payloads are signed by the lowest colluding id.
	for _, s := range env.State.Signers {
		if s != nil {
			node.forger = s
			break
		}
	}
	node.kept = func(to ident.ProcID) bool { return node.keep.Has(to) }
	return node, nil
}

type chaosNode struct {
	inner sim.Node
	rng   *mrand.Rand
	// forger signs the forged payloads; nil when no colluder can sign.
	forger sig.Signer

	// keep is this phase's audience when only a random subset is served;
	// kept, the send filter reading it, is built once, and fctx is
	// re-pointed each such phase.
	keep ident.Set
	kept func(ident.ProcID) bool
	fctx sim.Context

	// seen buffers genuine payloads received so far, fuel for replays.
	seen []sim.Envelope
}

func (c *chaosNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	c.seen = append(c.seen, inbox...)
	if len(c.seen) > 256 {
		c.seen = c.seen[len(c.seen)-256:]
	}

	switch c.rng.Intn(5) {
	case 0: // behave correctly this phase
		return c.inner.Step(ctx, inbox)
	case 1: // silence
		return nil
	case 2: // correct logic, but only toward a random half of the system
		c.keep = ident.Set{}
		for id := 0; id < ctx.N(); id++ {
			if c.rng.Intn(2) == 0 {
				c.keep.Add(ident.ProcID(id))
			}
		}
		return c.inner.Step(ctx.WithSendFilter(&c.fctx, c.kept), inbox)
	case 3: // replay stored genuine payloads at random recipients
		for i := 0; i < 3 && len(c.seen) > 0; i++ {
			e := c.seen[c.rng.Intn(len(c.seen))]
			to := ident.ProcID(c.rng.Intn(ctx.N()))
			if to == ctx.ID() {
				continue
			}
			// Replayed envelopes keep their original signer accounting.
			_ = ctx.Send(to, e.Payload, e.Signers, e.SigTotal)
		}
		return nil
	default: // garbage, possibly with colluding-signer material mixed in
		for i := 0; i < 2; i++ {
			to := ident.ProcID(c.rng.Intn(ctx.N()))
			if to == ctx.ID() {
				continue
			}
			payload := c.forgedPayload(ctx.Slab())
			_ = ctx.Send(to, payload, nil, 0)
		}
		return nil
	}
}

// forgedPayload builds junk that sometimes embeds a genuine signature by a
// colluding faulty processor over a random value — stressing validators
// that might trust a single signature too much. A signed payload is carved
// from slab.
func (c *chaosNode) forgedPayload(slab *sig.Slab) []byte {
	if c.rng.Intn(2) == 0 || c.forger == nil {
		buf := make([]byte, 1+c.rng.Intn(48))
		_, _ = c.rng.Read(buf)
		return buf
	}
	return slab.Marshal(slab.SignValue(c.forger, ident.Value(c.rng.Int63n(4))))
}

func (c *chaosNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// BitFlipper: runs the correct protocol but flips one bit in every outgoing
// payload. Under an unforgeable signature scheme all of its messages must
// be rejected, making it behaviourally equivalent to a silent processor —
// a mutation-robustness check on every protocol's validation path.

// BitFlipper corrupts up to t non-transmitter processors.
type BitFlipper struct{ lastT }

var _ Adversary = BitFlipper{}

// Name implements Adversary.
func (BitFlipper) Name() string { return "bit-flipper" }

// NewNode implements Adversary.
func (BitFlipper) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	inner, err := env.Run.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	return &bitFlipNode{inner: inner, rng: env.State.rng(cfg.ID)}, nil
}

type bitFlipNode struct {
	inner sim.Node
	rng   *mrand.Rand
}

func (b *bitFlipNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	// Intercept sends and corrupt one bit per payload.
	fctx := sim.NewContext(ctx.ID(), ctx.N(), ctx.T(), ctx.Transmitter(), ctx.Phase(), ctx.Phase()+1,
		func(e sim.Envelope) {
			if len(e.Payload) > 0 {
				mutated := append([]byte(nil), e.Payload...)
				idx := b.rng.Intn(len(mutated))
				mutated[idx] ^= 1 << uint(b.rng.Intn(8))
				e.Payload = mutated
			}
			_ = ctx.Send(e.To, e.Payload, e.Signers, e.SigTotal)
		})
	return b.inner.Step(fctx, inbox)
}

func (b *bitFlipNode) Decide() (ident.Value, bool) { return 0, false }
