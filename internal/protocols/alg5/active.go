package alg5

import (
	"slices"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg4"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// activeNode is the state machine of an active processor: the first 2t+1
// ("core") run Algorithm 2; the rest receive the valid message in the
// fan-out phase; all α of them drive the block structure.
type activeNode struct {
	cfg protocol.NodeConfig
	ly  *layout

	core *alg2.Core // nil for extended actives

	valid    sig.SignedValue
	hasValid bool

	// b is B(p, x) for the current block and pendingF the F(p, x-1)
	// contributed to the in-flight Algorithm 4, each marking passive id
	// α+i at index i (modeFull only).
	b, pendingF []bool

	// Built once per run and refilled per block (modeFull only): the
	// Algorithm 4 exchange among the actives, in flight while g4Live, and
	// the π table over the passives.
	g4     *alg4.Group
	g4Live bool
	pi     piTable

	// A block's activations, kept for the run (modeFull only): the
	// proof-of-work strings of the root being activated and of the last one
	// encoded, and the chains of the payload being sent (Send does not keep
	// them).
	strs, prevStrs []sig.SignedBytes
	chains         []sig.Chain
}

var _ sim.Node = (*activeNode)(nil)

// newActive builds an active processor's node, carving it and its state
// from the run's blocks.
func (r *run) newActive(cfg protocol.NodeConfig) (sim.Node, error) {
	ly := &r.ly
	a := &r.actives.Carve(1)[0]
	*a = activeNode{cfg: cfg, ly: ly}
	if ly.isCoreActive(cfg.ID) {
		c, err := alg2.NewCore(ly.actives[:2*cfg.T+1], cfg.T, cfg.ID, cfg.Value, cfg.Signer, cfg.Verifier)
		if err != nil {
			return nil, err
		}
		a.core = &r.cores.Carve(1)[0]
		*a.core = c
	}
	if ly.mode == modeFull {
		m := ly.n - ly.alpha
		sets := r.sets.Carve(2 * m)
		a.b, a.pendingF = sets[:m:m], sets[m:]
		a.pi = piTable{first: ly.passive(0), counts: r.counts.Carve(m), sources: r.sources.Carve(ly.alpha)[:0]}
		a.chains = r.chains.Carve(1)[:0] // the valid message's; a root with proof-of-work strings grows it once
		g4, err := r.g4.New(cfg.ID, nil, cfg.Signer, cfg.Verifier)
		if err != nil {
			return nil, err
		}
		a.g4 = g4
	}
	return a, nil
}

// adoptScan adopts the first valid message found in the inbox (valid
// messages are self-certifying).
// Whatever it decodes and does not keep is handed back to the slab.
func (a *activeNode) adoptScan(slab *sig.Slab, inbox []sim.Envelope) {
	if a.hasValid {
		return
	}
	for _, env := range inbox {
		mark := slab.Mark()
		if sv, ok := extractValid(slab, env.Payload); ok && a.ly.isValid(sv, a.cfg.Verifier) {
			a.valid, a.hasValid = sv, true
			return
		}
		slab.Rewind(mark)
	}
}

// ownValid turns the Algorithm 2 proof into a valid message, co-signing it
// if our own signature is needed to reach t+1 active signatures.
func (a *activeNode) ownValid(slab *sig.Slab) {
	proof, ok := a.core.Proof()
	if !ok {
		return
	}
	if !a.ly.isValid(proof, a.cfg.Verifier) {
		proof = slab.CoSign(a.cfg.Signer, proof)
		if !a.ly.isValid(proof, a.cfg.Verifier) {
			return
		}
	}
	a.valid, a.hasValid = proof, true
}

func (a *activeNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t := a.cfg.T
	phase := ctx.Phase()
	slab := ctx.Slab()

	// Phases 1..3t+3 (+ final classification at 3t+4): Algorithm 2 among
	// the core actives.
	if a.core != nil && phase <= 3*t+4 {
		if err := a.core.Step(ctx, inbox, phase); err != nil {
			return err
		}
	}

	switch {
	case phase < 3*t+4:
		return nil
	case phase == 3*t+4:
		if a.core == nil {
			return nil
		}
		a.ownValid(slab)
		if a.ly.mode == modeAlg2Only {
			return nil
		}
		// The first t+1 processors fan the valid message out: to the
		// extended actives (modeFull) or to every passive (modeFanout).
		if int(a.cfg.ID) <= t && a.hasValid {
			targets := a.ly.actives[2*t+1:]
			if a.ly.mode == modeFanout {
				targets = ident.Range(a.ly.n)[len(a.ly.actives):]
			}
			payload := slab.EncodeTagged(tagFanout, a.valid)
			if err := protocol.SendToAll(ctx, targets, payload, a.valid.Chain); err != nil {
				return err
			}
		}
		return nil
	}

	if a.ly.mode != modeFull {
		return nil
	}
	a.adoptScan(slab, inbox)

	x, rel, ok := a.ly.phaseToBlock(phase)
	if !ok {
		return nil
	}
	l := treeCap(x)

	switch {
	case rel == 0:
		// Start of block x: settle the previous block's Algorithm 4
		// exchange, derive B(p,x) and C(p,x), and send activations (block
		// x ≥ 1) or the final direct copies (block 0).
		tbl := &a.pi
		if x == a.ly.lambda {
			for i := range a.b {
				a.b[i] = true
			}
			tbl.build(a.ly, nil, x, a.cfg.Verifier)
		} else {
			if !a.g4Live {
				return nil
			}
			if err := a.g4.Step(ctx, inbox, 3); err != nil {
				return err
			}
			// The actives are listed in id order, so this is signer order:
			// what reaches the wire (payload bytes, and with them signatures
			// and histories) is deterministic per seed by construction.
			tbl.build(a.ly, a.g4.Output(), x, a.cfg.Verifier) // empty slots count for nothing
			// B(p,x) = members of our own F(p,x) with enough endorsements.
			for i, in := range a.pendingF {
				a.b[i] = in && tbl.pi(a.ly.passive(i)) >= a.ly.threshold()
			}
			a.g4Live = false
		}
		if !a.hasValid {
			return nil
		}
		if x == 0 {
			// Block 0: send the valid message directly to everybody left.
			payload := slab.EncodeTagged(tagFanout, a.valid)
			for i, in := range a.b {
				if !in {
					continue
				}
				if err := protocol.Send(ctx, a.ly.passive(i), payload, a.valid.Chain); err != nil {
					return err
				}
			}
			return nil
		}
		// C(p,x): subtrees with a proof of work; activate their roots. The
		// DisablePoW ablation activates everything unconditionally. A root
		// whose proof of work is the previous root's gets the same payload:
		// the table holds one single-link string per signer, so equal signer
		// lists are equal strings, and in block λ every root's list is empty.
		var payload []byte
		return a.ly.forest.eachRoot(x, func(ref treeRef) error {
			if !a.ly.disablePoW && !a.ly.hasProofOfWork(tbl, ref, x) {
				return nil
			}
			a.strs = a.ly.powStringsFor(tbl, ref, a.strs[:0])
			if payload == nil || !slices.EqualFunc(a.strs, a.prevStrs, sameSigner) {
				payload = encodeActivate(slab, a.valid, a.strs)
				a.chains = append(a.chains[:0], a.valid.Chain)
				for _, s := range a.strs {
					a.chains = append(a.chains, s.Chain)
				}
				a.strs, a.prevStrs = a.prevStrs, a.strs
			}
			return protocol.Send(ctx, a.ly.forest.at(ref), payload, a.chains...)
		})

	case x >= 1 && rel == 2*l:
		// Reports from this block's roots arrived: F(p, x-1) is B(p, x) less
		// the passives a report covers and this block's roots. Kick off the
		// next Algorithm 4 exchange with it.
		copy(a.pendingF, a.b)
		for _, env := range inbox {
			mark := slab.Mark()
			if sv, ok := sig.DecodeTagged(slab, env.Payload, tagReport); ok && a.ly.isValid(sv, a.cfg.Verifier) {
				for _, l := range sv.Chain {
					if !a.ly.isActive(l.Signer) {
						a.pendingF[int(l.Signer)-a.ly.alpha] = false
					}
				}
			}
			slab.Rewind(mark)
		}
		var f []ident.ProcID
		for i, in := range a.pendingF {
			if in && a.ly.isBlockRoot(a.ly.passive(i), x) {
				a.pendingF[i] = false
			} else if in {
				f = append(f, a.ly.passive(i))
			}
		}
		a.g4.Reset(stringBody(slab, x-1, f))
		a.g4Live = true
		return a.g4.Step(ctx, inbox, 0)

	case x >= 1 && (rel == 2*l+1 || rel == 2*l+2):
		if !a.g4Live {
			return nil
		}
		return a.g4.Step(ctx, inbox, rel-2*l)
	}
	return nil
}

// sameSigner reports whether two proof-of-work strings have the same signer.
func sameSigner(a, b sig.SignedBytes) bool { return a.Chain[0].Signer == b.Chain[0].Signer }

func (a *activeNode) Decide() (ident.Value, bool) {
	if a.core != nil {
		return a.core.Decide()
	}
	if a.hasValid {
		return a.valid.Value, true
	}
	return ident.V0, false
}

// Proof returns the transferable certificate this processor holds: a valid
// message (the common value with ≥ t+1 active signatures). Core actives
// fall back to their Algorithm 2 proof when they never observed their own
// fan-out copy.
func (a *activeNode) Proof() (sig.SignedValue, bool) {
	if a.hasValid {
		return a.valid, true
	}
	if a.core != nil {
		return a.core.Proof()
	}
	return sig.SignedValue{}, false
}
