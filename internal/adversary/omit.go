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
	return &omitNode{inner: inner, victims: o.Victims}, nil
}

type omitNode struct {
	inner   sim.Node
	victims ident.Set
}

func (o *omitNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	fctx := ctx.WithSendFilter(func(to ident.ProcID) bool { return !o.victims.Has(to) })
	return o.inner.Step(fctx, inbox)
}

func (o *omitNode) Decide() (ident.Value, bool) { return o.inner.Decide() }
