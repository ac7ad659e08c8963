package adversary

import (
	mrand "math/rand"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sim"
)

// OmitTowards is the omission coalition used by the Theorem 2 style "H”"
// construction: the corrupted processors run the correct protocol but never
// send anything to the victims. Against a protocol that routes a victim's
// only copies of the value through ≤ t processors, this starves the victim
// into the default decision while everybody else proceeds normally —
// breaking agreement.
type OmitTowards struct {
	// FaultySet is the corrupted coalition (e.g. A(p), the processors that
	// send to the victim in the fault-free history).
	FaultySet ident.Set
	// Victims are the processors the coalition withholds all messages from.
	Victims ident.Set
}

var _ Adversary = OmitTowards{}

// Name implements Adversary.
func (OmitTowards) Name() string { return "omit-towards" }

// Corrupt implements Adversary.
func (o OmitTowards) Corrupt(int, int, ident.ProcID, *mrand.Rand) ident.Set {
	return o.FaultySet.Clone()
}

// NewNode implements Adversary.
func (o OmitTowards) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	inner, err := env.Run.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	victims := o.Victims
	return &omitNode{inner: inner, spared: func(to ident.ProcID) bool { return !victims.Has(to) }}, nil
}

type omitNode struct {
	inner  sim.Node
	spared func(ident.ProcID) bool // the send filter, fixed for the run
	fctx   sim.Context             // re-pointed each phase
}

func (o *omitNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	return o.inner.Step(ctx.WithSendFilter(&o.fctx, o.spared), inbox)
}

func (o *omitNode) Decide() (ident.Value, bool) { return o.inner.Decide() }
