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
	ly  layout

	ref   treeRef
	level int

	valid    sig.SignedValue
	hasValid bool

	// links backs the chains this node decodes; what it decodes and does not
	// keep is handed back (sig.Slab.Rewind).
	links sig.Slab

	// Root role (block λ-level).
	activated bool
	m         sig.SignedValue
	queue     []ident.ProcID // our subtree's members in BFS order, minus us

	// Member role: one signed reply per block, bit x set once block x's is out.
	signedIn uint64
}

var _ sim.Node = (*passiveNode)(nil)

func newPassiveNode(cfg protocol.NodeConfig, ly layout) (sim.Node, error) {
	p := &passiveNode{cfg: cfg, ly: ly}
	if ly.mode == modeFull {
		ref, ok := ly.forest.locate(cfg.ID)
		if !ok {
			return nil, protocol.ErrBadParams
		}
		p.ref = ref
		p.level = level(ref.pos)
		members := ly.forest.subtreeMembers(ref)
		p.queue = members[1:]
	}
	return p, nil
}

// adoptScan adopts the first valid message in the inbox.
func (p *passiveNode) adoptScan(inbox []sim.Envelope) {
	if p.hasValid {
		return
	}
	for _, env := range inbox {
		mark := p.links.Mark()
		if sv, ok := extractValid(&p.links, env.Payload); ok && p.ly.isValid(sv, p.cfg.Verifier) {
			p.valid, p.hasValid = sv, true
			return
		}
		p.links.Rewind(mark)
	}
}

func (p *passiveNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	p.adoptScan(inbox)
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

	if rel == 1 {
		// Activation check: a valid message plus a proof of work for our
		// subtree, from an active processor.
		for _, env := range inbox {
			if !p.ly.isActive(env.From) {
				continue
			}
			mark := p.links.Mark()
			sv, strs, ok := decodeActivate(&p.links, env.Payload)
			if !ok || !p.ly.isValid(sv, p.cfg.Verifier) {
				p.links.Rewind(mark)
				continue
			}
			if !p.ly.disablePoW {
				tbl := p.ly.buildPiTable(strs, x, p.cfg.Verifier)
				if !p.ly.hasProofOfWork(tbl, p.ref, x) {
					p.links.Rewind(mark)
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
	if j := (rel - 1) / 2; j >= 1 && j-1 < len(p.queue) {
		expect := p.queue[j-1]
		for _, env := range inbox {
			if env.From != expect {
				continue
			}
			mark := p.links.Mark()
			sv, ok := decodeSV(&p.links, env.Payload, tagUp)
			if ok && sv.Value == p.m.Value && len(sv.Chain) == len(p.m.Chain)+1 &&
				sv.Chain[len(sv.Chain)-1].Signer == expect &&
				sv.Chain.Verify(p.cfg.Verifier, sig.ValueBody(sv.Value)) == nil {
				p.m = sv
				break
			}
			p.links.Rewind(mark)
		}
	}

	switch {
	case rel == 2*l-1:
		// Report the accumulated chain to every active processor.
		payload := encodeSV(tagReport, p.m)
		return protocol.SendToAll(ctx, p.ly.actives, payload, p.m.Chain)
	default:
		// rel = 2j+1 with j+1 ≤ len(queue): contact member j+1.
		if j := (rel-1)/2 + 1; j-1 < len(p.queue) {
			payload := encodeSV(tagDown, p.m)
			return protocol.Send(ctx, p.queue[j-1], payload, p.m.Chain)
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
	mark := p.links.Mark()
	var got []sig.SignedValue
	for _, env := range inbox {
		if env.From != rootID {
			continue
		}
		if sv, ok := decodeSV(&p.links, env.Payload, tagDown); ok {
			got = append(got, sv)
		}
	}
	if len(got) != 1 || !p.ly.isValid(got[0], p.cfg.Verifier) {
		p.links.Rewind(mark)
		return nil
	}
	p.signedIn |= 1 << uint(x)
	signed := got[0].CoSign(p.cfg.Signer)
	if !p.hasValid {
		p.valid, p.hasValid = got[0], true
	}
	payload := encodeSV(tagUp, signed)
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
