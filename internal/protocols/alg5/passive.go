package alg5

import (
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// passiveNode is the state machine of a passive processor. During block
// x = λ - level(q) it acts as a subtree root; during earlier blocks it is a
// member of its ancestors' subtrees; in modeFanout it only listens.
type passiveNode struct {
	cfg protocol.NodeConfig
	ly  *layout

	ref   treeRef
	level int

	valid    sig.SignedValue
	hasValid bool

	// Root role (block λ-level), walking the subtree by forest.member.
	activated bool
	m         sig.SignedValue
	pi        piTable

	// Member role: one signed reply per block, bit x set once block x's is out.
	signedIn uint64
}

var _ sim.Node = (*passiveNode)(nil)

// newPassive builds a passive processor's node, carved from the run's block.
func (r *run) newPassive(cfg protocol.NodeConfig) (sim.Node, error) {
	p := &r.passives.Carve(1)[0]
	*p = passiveNode{cfg: cfg, ly: &r.ly}
	if r.ly.mode == modeFull {
		ref, ok := r.ly.forest.locate(cfg.ID)
		if !ok {
			return nil, protocol.ErrBadParams
		}
		p.ref = ref
		p.level = level(ref.pos)
	}
	return p, nil
}

// adoptScan adopts the first valid message in the inbox; whatever it decodes
// and does not keep is handed back to the slab.
func (p *passiveNode) adoptScan(slab *sig.Slab, inbox []sim.Envelope) {
	if p.hasValid {
		return
	}
	for _, env := range inbox {
		mark := slab.Mark()
		if sv, ok := extractValid(slab, env.Payload); ok && p.ly.isValid(sv, p.cfg.Verifier) {
			p.valid, p.hasValid = sv, true
			return
		}
		slab.Rewind(mark)
	}
}

func (p *passiveNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	p.adoptScan(ctx.Slab(), inbox)
	if p.ly.mode != modeFull {
		return nil
	}

	x, rel, ok := p.ly.phaseToBlock(ctx.Phase())
	if !ok || x == 0 {
		return nil
	}

	rootBlock := p.ly.lambda - p.level
	switch {
	case x == rootBlock:
		return p.stepRoot(ctx, inbox, x, rel)
	case x < rootBlock:
		// Our subtree was already processed; nothing to do in later blocks.
		return nil
	default:
		return p.stepMember(ctx, inbox, x, rel)
	}
}

// stepRoot drives the subtree walk once an activation arrives.
func (p *passiveNode) stepRoot(ctx *sim.Context, inbox []sim.Envelope, x, rel int) error {
	l := treeCap(x)
	slab := ctx.Slab()

	if rel == 1 {
		// Activation check: a valid message plus a proof of work for our
		// subtree, from an active processor.
		for _, env := range inbox {
			if !p.ly.isActive(env.From) {
				continue
			}
			mark := slab.Mark()
			sv, strs, ok := decodeActivate(slab, env.Payload)
			if !ok || !p.ly.isValid(sv, p.cfg.Verifier) {
				slab.Rewind(mark)
				continue
			}
			if !p.ly.disablePoW {
				// Our subtree's ids run from ours; block λ needs no strings.
				if p.pi.counts == nil && len(strs) > 0 {
					p.pi = newPiTable(p.cfg.ID, p.ly.forest.size(p.ref.tree)-p.ref.pos, len(strs))
				}
				p.pi.build(p.ly, strs, x, p.cfg.Verifier)
				if !p.ly.hasProofOfWork(&p.pi, p.ref, x) {
					slab.Rewind(mark)
					continue
				}
			}
			p.activated = true
			p.m = sv
			if !p.hasValid {
				p.valid, p.hasValid = sv, true
			}
			break
		}
	}

	if !p.activated || rel < 1 || rel%2 == 0 {
		return nil
	}

	// Odd rel = 2j+1 (j ≥ 1): absorb the reply of member j (sent at rel
	// 2j). rel 1 is the activation step (j = 0), which only sends.
	if expect, ok := p.ly.forest.member(p.ref, (rel-1)/2); ok && rel > 1 {
		for _, env := range inbox {
			if env.From != expect {
				continue
			}
			mark := slab.Mark()
			sv, ok := sig.DecodeTagged(slab, env.Payload, tagUp)
			if ok && sv.Value == p.m.Value && len(sv.Chain) == len(p.m.Chain)+1 &&
				sv.Chain[len(sv.Chain)-1].Signer == expect &&
				sv.Chain.Verify(p.cfg.Verifier, sig.ValueBody(sv.Value)) == nil {
				p.m = sv
				break
			}
			slab.Rewind(mark)
		}
	}

	switch {
	case rel == 2*l-1:
		// Report the accumulated chain to every active processor.
		payload := slab.EncodeTagged(tagReport, p.m)
		return protocol.SendToAll(ctx, p.ly.actives, payload, p.m.Chain)
	default:
		// rel = 2j+1: contact member j+1, if the walk has one.
		if next, ok := p.ly.forest.member(p.ref, (rel-1)/2+1); ok {
			payload := slab.EncodeTagged(tagDown, p.m)
			return protocol.Send(ctx, next, payload, p.m.Chain)
		}
	}
	return nil
}

// stepMember answers the designated chain-extension request of block x.
func (p *passiveNode) stepMember(ctx *sim.Context, inbox []sim.Envelope, x, rel int) error {
	rootID, ok := p.ly.forest.blockRoot(p.cfg.ID, x)
	if !ok || rootID == p.cfg.ID {
		return nil
	}
	// Our position j in the block root's member walk: the index in the
	// subtree's BFS order (root excluded). We are contacted at rel 2j-1 and
	// reply at rel 2j.
	rootRef, _ := p.ly.forest.locate(rootID)
	j := walkIndex(rootRef.pos, p.ref.pos)
	if rel != 2*j || p.signedIn&(1<<uint(x)) != 0 {
		return nil
	}

	// "Exactly one valid message from the root of the depth-x subtree."
	slab := ctx.Slab()
	mark := slab.Mark()
	var first sig.SignedValue // and how many messages came
	got := 0
	for _, env := range inbox {
		if env.From != rootID {
			continue
		}
		if sv, ok := sig.DecodeTagged(slab, env.Payload, tagDown); ok {
			if got++; got == 1 {
				first = sv
			}
		}
	}
	if got != 1 || !p.ly.isValid(first, p.cfg.Verifier) {
		slab.Rewind(mark)
		return nil
	}
	p.signedIn |= 1 << uint(x)
	signed := slab.CoSign(p.cfg.Signer, first)
	if !p.hasValid {
		p.valid, p.hasValid = first, true
	}
	payload := slab.EncodeTagged(tagUp, signed)
	return protocol.Send(ctx, rootID, payload, signed.Chain)
}

func (p *passiveNode) Decide() (ident.Value, bool) {
	if p.hasValid {
		return p.valid.Value, true
	}
	return ident.V0, false
}

// Proof returns the valid message this passive processor received — a
// transferable certificate of the common value.
func (p *passiveNode) Proof() (sig.SignedValue, bool) {
	if !p.hasValid {
		return sig.SignedValue{}, false
	}
	return p.valid, true
}
