package alg5

import (
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
	ly  layout

	core *alg2.Core // nil for extended actives

	valid    sig.SignedValue
	hasValid bool

	// links backs the chains this node decodes; whatever is decoded and not
	// kept is handed back (sig.Slab.Rewind), so scanning a phase's reports
	// reuses the same few links.
	links sig.Slab

	b        ident.Set   // B(p, x) for the current block
	pendingF ident.Set   // F(p, x-1) contributed to the in-flight Algorithm 4
	g4       *alg4.Group // in-flight Algorithm 4 instance
}

var _ sim.Node = (*activeNode)(nil)

func newActiveNode(cfg protocol.NodeConfig, ly layout) (sim.Node, error) {
	a := &activeNode{cfg: cfg, ly: ly}
	if ly.isCoreActive(cfg.ID) {
		c, err := alg2.NewCore(ly.coreActives, cfg.T, cfg.ID, cfg.Value, cfg.Signer, cfg.Verifier)
		if err != nil {
			return nil, err
		}
		a.core = c
	}
	return a, nil
}

// adoptScan adopts the first valid message found in the inbox (valid
// messages are self-certifying).
func (a *activeNode) adoptScan(inbox []sim.Envelope) {
	if a.hasValid {
		return
	}
	for _, env := range inbox {
		mark := a.links.Mark()
		if sv, ok := extractValid(&a.links, env.Payload); ok && a.ly.isValid(sv, a.cfg.Verifier) {
			a.valid, a.hasValid = sv, true
			return
		}
		a.links.Rewind(mark)
	}
}

// ownValid turns the Algorithm 2 proof into a valid message, co-signing it
// if our own signature is needed to reach t+1 active signatures.
func (a *activeNode) ownValid() {
	proof, ok := a.core.Proof()
	if !ok {
		return
	}
	if !a.ly.isValid(proof, a.cfg.Verifier) {
		proof = proof.CoSign(a.cfg.Signer)
		if !a.ly.isValid(proof, a.cfg.Verifier) {
			return
		}
	}
	a.valid, a.hasValid = proof, true
}

func (a *activeNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t := a.cfg.T
	phase := ctx.Phase()

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
		a.ownValid()
		if a.ly.mode == modeAlg2Only {
			return nil
		}
		// The first t+1 processors fan the valid message out: to the
		// extended actives (modeFull) or to every passive (modeFanout).
		if int(a.cfg.ID) <= t && a.hasValid {
			var targets []ident.ProcID
			if a.ly.mode == modeFull {
				targets = a.ly.actives[2*t+1:]
			} else {
				targets = a.ly.passives()
			}
			payload := encodeSV(tagFanout, a.valid)
			if err := protocol.SendToAll(ctx, targets, payload, a.valid.Chain); err != nil {
				return err
			}
		}
		return nil
	}

	if a.ly.mode != modeFull {
		return nil
	}
	a.adoptScan(inbox)

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
		var tbl *piTable
		if x == a.ly.lambda {
			a.b = ident.NewSet(a.ly.passives()...)
			tbl = &piTable{index: x, byProc: make(map[ident.ProcID]ident.Set)}
		} else {
			if a.g4 == nil {
				return nil
			}
			if err := a.g4.Step(ctx, inbox, 3); err != nil {
				return err
			}
			// The actives are listed in id order, so this is signer order: map
			// iteration order must never reach the wire (payload bytes, and
			// with them signatures and histories, have to be deterministic
			// per seed).
			tbl = a.ly.buildPiTable(a.g4.Collected(), x, a.cfg.Verifier)
			// B(p,x) = members of our own F(p,x) with enough endorsements.
			b := make(ident.Set)
			for q := range a.pendingF {
				if tbl.pi(q) >= a.ly.threshold() {
					b.Add(q)
				}
			}
			a.b = b
			a.g4 = nil
		}
		if !a.hasValid {
			return nil
		}
		if x == 0 {
			// Block 0: send the valid message directly to everybody left.
			payload := encodeSV(tagFanout, a.valid)
			for _, q := range a.b.Sorted() {
				if err := protocol.Send(ctx, q, payload, a.valid.Chain); err != nil {
					return err
				}
			}
			return nil
		}
		// C(p,x): subtrees with a proof of work; activate their roots. The
		// DisablePoW ablation activates everything unconditionally.
		var chains []sig.Chain // reused: Send does not keep it
		for _, ref := range a.ly.forest.rootsOfDepth(x) {
			if !a.ly.disablePoW && !a.ly.hasProofOfWork(tbl, ref, x) {
				continue
			}
			strs := a.ly.powStringsFor(tbl, ref)
			payload := encodeActivate(a.valid, strs)
			chains = append(chains[:0], a.valid.Chain)
			for _, s := range strs {
				chains = append(chains, s.Chain)
			}
			if err := protocol.Send(ctx, a.ly.forest.at(ref), payload, chains...); err != nil {
				return err
			}
		}

	case x >= 1 && rel == 2*l:
		// Reports from this block's roots arrived: compute F(p, x-1) and
		// kick off the next Algorithm 4 exchange.
		covered := make(ident.Set)
		for _, env := range inbox {
			mark := a.links.Mark()
			if sv, ok := decodeSV(&a.links, env.Payload, tagReport); ok && a.ly.isValid(sv, a.cfg.Verifier) {
				for _, l := range sv.Chain {
					if !a.ly.isActive(l.Signer) {
						covered.Add(l.Signer)
					}
				}
			}
			a.links.Rewind(mark)
		}
		f := make(ident.Set)
		for q := range a.b {
			if !covered.Has(q) && !a.ly.isBlockRoot(q, x) {
				f.Add(q)
			}
		}
		a.pendingF = f
		g4, err := alg4.NewGroup(a.ly.actives, a.cfg.ID, stringBody(x-1, f.Sorted()), a.cfg.Signer, a.cfg.Verifier)
		if err != nil {
			return err
		}
		a.g4 = g4
		return a.g4.Step(ctx, inbox, 0)

	case x >= 1 && (rel == 2*l+1 || rel == 2*l+2):
		if a.g4 == nil {
			return nil
		}
		return a.g4.Step(ctx, inbox, rel-2*l)
	}
	return nil
}

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
