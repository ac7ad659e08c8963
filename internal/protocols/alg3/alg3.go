// Package alg3 implements Algorithm 3 of the paper (Lemma 1, Theorem 5):
// Byzantine Agreement for general n in t + 2s + 3 phases with at most
// 2n + 4tn/s + 3t²s messages, where s parameterizes the size of the passive
// sets. Choosing s = 4t yields the O(n + t³) bound of Theorem 5; the
// introduction's phase/message trade-off (t + 3 + t/α phases, O(αn)
// messages) is this algorithm with s = ⌈t/(2α)⌉.
//
// The first 2t+1 processors ("active", including the transmitter) run
// Algorithm 1 among themselves. The remaining m = n-(2t+1) "passive"
// processors are split into ⌈m/s⌉ sets of size ≤ s, each with a root:
//
//	Phase t+3:        every active processor sends the agreed value to
//	                  every root; a root adopts the value received from
//	                  ≥ t+1 active processors as m(1).
//	Phases t+4..t+2s+1: the root walks its set: it sends m(j-1) to c(j),
//	                  which signs and returns it; the root accumulates the
//	                  signatures into m(j).
//	Phase t+2s+2:     each root reports m(s) to every active processor.
//	Phase t+2s+3:     each active processor sends the agreed value directly
//	                  to every set member whose signature is missing from
//	                  its root's report.
package alg3

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// Message tags.
const (
	tagActiveValue byte = 0x31 // active -> root (phase t+3) / active -> member (last phase)
	tagChainDown   byte = 0x32 // root -> member
	tagChainUp     byte = 0x33 // member -> root
	tagReport      byte = 0x34 // root -> active
)

// Protocol is Algorithm 3 with set-size parameter S.
type Protocol struct {
	// S is the passive set size (1 ≤ S). Theorem 5 uses S = 4t.
	S int
}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (p Protocol) Name() string { return fmt.Sprintf("alg3(s=%d)", p.S) }

// Check implements protocol.Protocol.
func (p Protocol) Check(n, t int) error {
	if t < 1 || n < 2*t+1 {
		return fmt.Errorf("%w: alg3 requires n ≥ 2t+1 with t ≥ 1 (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	if p.S < 1 {
		return fmt.Errorf("%w: alg3 requires s ≥ 1 (got %d)", protocol.ErrBadParams, p.S)
	}
	return nil
}

// Phases implements protocol.Protocol: t + 2s + 3.
func (p Protocol) Phases(_, t int) int { return t + 2*p.S + 3 }

// layout is the deterministic partition of the system: the actives are ids
// 0..2t and passive set k is the id range [2t+1+k·s, 2t+1+(k+1)·s) cut off
// at n, its first id the root. Nothing in it is proportional to n; a run's
// builder holds the one its nodes point to.
type layout struct {
	n, t, s int
	actives []ident.ProcID // ids 0..2t
}

func newLayout(n, t, s int) layout {
	return layout{n: n, t: t, s: s, actives: ident.Range(2*t + 1)}
}

// sets returns the number of passive sets, ⌈(n-(2t+1))/s⌉.
func (l *layout) sets() int { return (l.n - (2*l.t + 1) + l.s - 1) / l.s }

// set returns passive set k as an id range: its root and its size.
func (l *layout) set(k int) (root ident.ProcID, size int) {
	first := 2*l.t + 1 + k*l.s
	return ident.ProcID(first), min(l.s, l.n-first)
}

// locate returns (setIdx, memberIdx) for a passive id; memberIdx 0 is the
// root. ok is false for active ids.
func (l *layout) locate(id ident.ProcID) (int, int, bool) {
	if int(id) < 2*l.t+1 {
		return 0, 0, false
	}
	off := int(id) - (2*l.t + 1)
	return off / l.s, off % l.s, true
}

// NewRun implements protocol.Protocol.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	if err := p.Check(n, t); err != nil {
		return nil, err
	}
	r := &run{l: newLayout(n, t, p.S)}
	sets := r.l.sets()
	r.actives = sig.NewBlocks[activeNode](2*t+1, protocol.Overflow)
	r.reports = sig.NewBlocks[sig.SignedValue]((2*t+1)*sets, protocol.Overflow)
	r.roots = sig.NewBlocks[rootNode](sets, protocol.Overflow)
	r.members = sig.NewBlocks[memberNode](n-(2*t+1)-sets, protocol.Overflow)
	return r, nil
}

// run builds one run's nodes: its layout, and one block per role sized to
// the number of processors in it, and one for the actives' report slots.
type run struct {
	l       layout
	actives sig.Blocks[activeNode]
	reports sig.Blocks[sig.SignedValue]
	roots   sig.Blocks[rootNode]
	members sig.Blocks[memberNode]
}

// NewNode implements protocol.Builder.
func (r *run) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	if err := cfg.ValidateRun(r.l.n, r.l.t); err != nil {
		return nil, err
	}
	if err := cfg.RequireBinaryValue(); err != nil {
		return nil, err
	}
	if cfg.Transmitter != 0 {
		return nil, fmt.Errorf("%w: alg3 assumes transmitter 0", protocol.ErrBadParams)
	}
	if int(cfg.ID) < len(r.l.actives) {
		inner, err := alg1.NewCore(r.l.actives, cfg.T, cfg.ID, cfg.Value, cfg.Signer, cfg.Verifier)
		if err != nil {
			return nil, err
		}
		a := &r.actives.Carve(1)[0]
		*a = activeNode{cfg: cfg, l: &r.l, inner: inner, reports: r.reports.Carve(r.l.sets())}
		return a, nil
	}
	setIdx, memberIdx, _ := r.l.locate(cfg.ID)
	if memberIdx == 0 {
		root := &r.roots.Carve(1)[0]
		*root = rootNode{cfg: cfg, l: &r.l, setIdx: setIdx}
		return root, nil
	}
	mn := &r.members.Carve(1)[0]
	*mn = memberNode{cfg: cfg, l: &r.l, setIdx: setIdx, memberIdx: memberIdx}
	return mn, nil
}

// ---------------------------------------------------------------------------
// Active node

type activeNode struct {
	cfg   protocol.NodeConfig
	l     *layout
	inner alg1.Core

	committed    ident.Value
	hasCommitted bool
	// reports[k] is the first report root k sent, read in the last phase.
	reports []sig.SignedValue
}

var _ sim.Node = (*activeNode)(nil)

func (a *activeNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t := a.cfg.T
	phase := ctx.Phase()
	slab := ctx.Slab()
	if phase <= t+3 {
		if err := a.inner.Step(ctx, inbox, phase); err != nil {
			return err
		}
	}
	switch {
	case phase == t+3:
		// Commit the Algorithm 1 outcome and inform every root.
		a.committed, a.hasCommitted = a.inner.Committed(), true
		sv := slab.SignValue(a.cfg.Signer, a.committed)
		payload := slab.EncodeTagged(tagActiveValue, sv)
		for k := 0; k < a.l.sets(); k++ {
			root, _ := a.l.set(k)
			if err := protocol.Send(ctx, root, payload, sv.Chain); err != nil {
				return err
			}
		}
	case phase == t+2*a.l.s+3:
		// Final phase: cover members whose signature the root's report is
		// missing (or whose root never reported / reported a wrong value).
		// reports[k] is the first report root k sent, if sent[k].
		reports := a.reports
		var sent ident.Set
		for _, env := range inbox {
			setIdx, memberIdx, okLoc := a.l.locate(env.From)
			if !okLoc || memberIdx != 0 {
				continue
			}
			sv, ok := sig.DecodeTagged(slab, env.Payload, tagReport)
			if ok && sent.Add(ident.ProcID(setIdx)) {
				reports[setIdx] = sv
			}
		}
		sv := slab.SignValue(a.cfg.Signer, a.committed)
		payload := slab.EncodeTagged(tagActiveValue, sv)
		for setIdx, rep := range reports {
			root, size := a.l.set(setIdx)
			var covered ident.Set // member index i for root+i
			if sent.Has(ident.ProcID(setIdx)) && rep.Value == a.committed &&
				rep.Chain.Verify(a.cfg.Verifier, sig.ValueBody(rep.Value)) == nil {
				for _, l := range rep.Chain {
					if l.Signer > root && l.Signer < root+ident.ProcID(size) {
						covered.Add(l.Signer - root)
					}
				}
			}
			for i := 1; i < size; i++ {
				if covered.Has(ident.ProcID(i)) {
					continue
				}
				if err := protocol.Send(ctx, root+ident.ProcID(i), payload, sv.Chain); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (a *activeNode) Decide() (ident.Value, bool) { return a.inner.Decide() }

// ---------------------------------------------------------------------------
// Root node

type rootNode struct {
	cfg    protocol.NodeConfig
	l      *layout
	setIdx int

	m       sig.SignedValue // current m(j)
	haveM   bool
	pending int // index of the member we are waiting on (1-based member idx)
}

var _ sim.Node = (*rootNode)(nil)

// member returns the id at index i of this root's set and whether the
// (possibly short) set has one.
func (r *rootNode) member(i int) (ident.ProcID, bool) {
	root, size := r.l.set(r.setIdx)
	return root + ident.ProcID(i), i < size
}

func (r *rootNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t, s := r.cfg.T, r.l.s
	phase := ctx.Phase()
	slab := ctx.Slab()
	switch {
	case phase == t+4:
		// Collect active values sent at t+3; adopt the value received from
		// ≥ t+1 distinct active processors.
		if v, ok := tally(slab, inbox, t, r.cfg.Verifier); ok {
			r.m, r.haveM = sig.SignedValue{Value: v}, true
		}
	case phase > t+4 && phase <= t+2*s+2 && (phase-t)%2 == 0:
		// Phase t+2j+2: process c(j)'s reply (sent during t+2j+1).
		if r.haveM && r.pending > 0 {
			expect, _ := r.member(r.pending)
			for _, env := range inbox {
				if env.From != expect {
					continue
				}
				sv, ok := sig.DecodeTagged(slab, env.Payload, tagChainUp)
				if !ok || sv.Value != r.m.Value || len(sv.Chain) != len(r.m.Chain)+1 {
					continue
				}
				if len(sv.Chain) == 0 || sv.Chain[len(sv.Chain)-1].Signer != expect {
					continue
				}
				if sv.Chain.Verify(r.cfg.Verifier, sig.ValueBody(sv.Value)) != nil {
					continue
				}
				r.m = sv
				break
			}
			r.pending = 0
		}
	}

	// Outgoing schedule. Phase t+2j sends m(j-1) to c(j) (member index
	// j-1 in 0-based terms is set()[j-1]; c(1) is the root itself, so the
	// walk visits set()[1..]).
	if r.haveM {
		switch {
		case phase >= t+4 && phase <= t+2*s && phase%2 == t%2:
			// phase = t+2j  =>  j = (phase-t)/2, target member c(j) for
			// j = 2..s maps to member(j-1).
			j := (phase - t) / 2
			if target, ok := r.member(j - 1); j >= 2 && ok {
				payload := slab.EncodeTagged(tagChainDown, r.m)
				if err := protocol.Send(ctx, target, payload, r.m.Chain); err != nil {
					return err
				}
				r.pending = j - 1
			}
		case phase == t+2*s+2:
			payload := slab.EncodeTagged(tagReport, r.m)
			if err := protocol.SendToAll(ctx, r.l.actives, payload, r.m.Chain); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *rootNode) Decide() (ident.Value, bool) {
	if r.haveM {
		return r.m.Value, true
	}
	return ident.V0, true
}

// ---------------------------------------------------------------------------
// Member node

type memberNode struct {
	cfg       protocol.NodeConfig
	l         *layout
	setIdx    int
	memberIdx int // 0-based position in the set; the paper's c(j) has j = memberIdx+1

	fromRoot    ident.Value
	haveRoot    bool
	final       ident.Value
	haveFinal   bool
	replyQueued *sig.SignedValue
}

var _ sim.Node = (*memberNode)(nil)

func (mn *memberNode) root() ident.ProcID { root, _ := mn.l.set(mn.setIdx); return root }

func (mn *memberNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t, s := mn.cfg.T, mn.l.s
	phase := ctx.Phase()
	slab := ctx.Slab()
	j := mn.memberIdx + 1 // paper index: we are c(j)

	// Designated chain-down phase for c(j) is t+2j; the reply goes out at
	// t+2j+1, i.e. we observe the root's message in the Step of phase
	// t+2j+1 (it was sent during t+2j).
	if phase == t+2*j+1 {
		var first sig.SignedValue // and how many messages came
		got := 0
		for _, env := range inbox {
			if env.From != mn.root() {
				continue
			}
			if sv, ok := sig.DecodeTagged(slab, env.Payload, tagChainDown); ok {
				if got++; got == 1 {
					first = sv
				}
			}
		}
		// "Exactly one valid message from its root with possibly some
		// signatures of c(2)..c(j-1) appended."
		if got == 1 && mn.validDown(first) {
			mn.fromRoot, mn.haveRoot = first.Value, true
			signed := slab.CoSign(mn.cfg.Signer, first)
			payload := slab.EncodeTagged(tagChainUp, signed)
			if err := protocol.Send(ctx, mn.root(), payload, signed.Chain); err != nil {
				return err
			}
		}
	}

	// Final catch-up: the last sending phase is t+2s+3, so its messages
	// arrive at the delivery-only step t+2s+4.
	if phase == t+2*s+4 {
		mn.final, mn.haveFinal = tally(slab, inbox, t, mn.cfg.Verifier)
	}
	return nil
}

// tally counts the active values in inbox — each a value signed by its
// sender, an active — and returns the one at least t+1 distinct actives sent.
// A tally is a bitset over the 2t+1 actives, one per binary value: the t+1 or
// more correct actives all send the binary value Algorithm 1 committed them
// to, so a non-binary value is signed only by faulty actives, of which there
// are at most t, and can never reach t+1 votes; it is verified like any other
// and then dropped. A vote keeps no chain.
func tally(slab *sig.Slab, inbox []sim.Envelope, t int, verifier sig.Verifier) (ident.Value, bool) {
	var votes [2]ident.Set // votes[v]: the actives that sent value v
	mark := slab.Mark()
	defer slab.Rewind(mark)
	for _, env := range inbox {
		if int(env.From) >= 2*t+1 {
			continue
		}
		sv, ok := sig.DecodeTagged(slab, env.Payload, tagActiveValue)
		if !ok || len(sv.Chain) != 1 || sv.Chain[0].Signer != env.From {
			continue
		}
		if sv.Verify(verifier) != nil || (sv.Value != ident.V0 && sv.Value != ident.V1) {
			continue
		}
		votes[sv.Value].Add(env.From)
	}
	for v, who := range votes {
		if who.Len() >= t+1 {
			return ident.Value(v), true
		}
	}
	return ident.V0, false
}

// validDown checks a chain-down message: signatures only by our set's
// members with positions strictly between the root and us, cryptographically
// valid over the value.
func (mn *memberNode) validDown(sv sig.SignedValue) bool {
	for _, l := range sv.Chain {
		if l.Signer <= mn.root() || l.Signer >= mn.cfg.ID {
			return false
		}
	}
	if !sv.Chain.Distinct() {
		return false
	}
	if len(sv.Chain) > 0 && sv.Chain.Verify(mn.cfg.Verifier, sig.ValueBody(sv.Value)) != nil {
		return false
	}
	return true
}

func (mn *memberNode) Decide() (ident.Value, bool) {
	if mn.haveFinal {
		return mn.final, true
	}
	if mn.haveRoot {
		return mn.fromRoot, true
	}
	return ident.V0, true
}
