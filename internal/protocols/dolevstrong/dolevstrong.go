// Package dolevstrong implements the classical authenticated Byzantine
// Agreement algorithm of Dolev and Strong (the paper's reference [9]) as
// the baseline the information-exchange-optimal algorithms are compared
// against. It runs in t+1 phases and, as implemented (every processor
// relays each of at most two distinct values once to everybody), sends
// O(n²) messages carrying O(n²·t) signatures in the worst case.
//
//	Phase 1:      the transmitter signs and broadcasts its value.
//	Phase k:      a processor that extracted a new value v from a message
//	              carrying k-1 distinct signatures beginning with the
//	              transmitter's appends its own signature and broadcasts,
//	              provided it has extracted at most two values so far (two
//	              distinct extracted values already prove the transmitter
//	              faulty, so further relays cannot change any decision).
//	Decision:     if exactly one value was extracted, that value; else the
//	              default 0.
package dolevstrong

import (
	"fmt"
	"slices"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// Protocol is the Dolev–Strong baseline.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "dolev-strong" }

// Check implements protocol.Protocol: authenticated BA needs n ≥ t+2 for
// agreement among at least two correct processors (and n ≥ 2 overall).
func (Protocol) Check(n, t int) error {
	if n < 2 || t < 0 || n < t+2 {
		return fmt.Errorf("%w: dolev-strong requires n ≥ max(2, t+2) (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (Protocol) Phases(_, t int) int { return t + 1 }

// NewRun implements protocol.Protocol.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	return protocol.Uniform(p, n, t, func(nd *node, cfg protocol.NodeConfig) error {
		nd.cfg = cfg
		return nil
	})
}

type node struct {
	cfg protocol.NodeConfig
	// extracted[:nextracted] are the distinct values extracted so far: at
	// most two are kept.
	extracted  [2]ident.Value
	nextracted int
	// relayQueue holds values extracted in the previous phase that still
	// need relaying with our signature appended.
	relayQueue []sig.SignedValue
}

var _ sim.Node = (*node)(nil)

// accept validates a phase-(k-1) message: value plus a chain of exactly k-1
// distinct signatures, the first by the transmitter, none by us. Its chain is
// carved from slab.
func (n *node) accept(slab *sig.Slab, payload []byte, k int) (sig.SignedValue, bool) {
	sv, err := slab.Unmarshal(payload)
	if err != nil {
		return sig.SignedValue{}, false
	}
	if len(sv.Chain) != k || !sv.Chain.Distinct() {
		return sig.SignedValue{}, false
	}
	if sv.Chain[0].Signer != n.cfg.Transmitter || sv.Chain.Has(n.cfg.ID) {
		return sig.SignedValue{}, false
	}
	if err := sv.Verify(n.cfg.Verifier); err != nil {
		return sig.SignedValue{}, false
	}
	return sv, true
}

func (n *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	phase := ctx.Phase()
	slab := ctx.Slab()

	if n.cfg.IsTransmitter() {
		if phase == 1 {
			sv := slab.SignValue(n.cfg.Signer, n.cfg.Value)
			if err := protocol.Broadcast(ctx, slab.Marshal(sv), sv.Chain); err != nil {
				return err
			}
			n.extract(n.cfg.Value)
		}
		return nil
	}

	// Extract new values from messages sent during the previous phase; a
	// message that extracts nothing hands its links back.
	for _, env := range inbox {
		mark := slab.Mark()
		sv, ok := n.accept(slab, env.Payload, phase-1)
		if !ok {
			slab.Rewind(mark)
			continue
		}
		if slices.Contains(n.extracted[:n.nextracted], sv.Value) {
			slab.Rewind(mark)
			continue
		}
		// Once two distinct values are extracted every correct processor's
		// decision is already forced to the default; cap storage at two and
		// relay at most two (the classical optimization).
		if n.nextracted >= 2 {
			slab.Rewind(mark)
			continue
		}
		n.extract(sv.Value)
		n.relayQueue = append(n.relayQueue, sv)
	}

	// Relay newly extracted values with our signature, within the t+1
	// sending window.
	if phase <= ctx.T()+1 {
		for _, sv := range n.relayQueue {
			signed := slab.CoSign(n.cfg.Signer, sv)
			if err := protocol.Broadcast(ctx, slab.Marshal(signed), signed.Chain); err != nil {
				return err
			}
		}
	}
	n.relayQueue = n.relayQueue[:0]
	return nil
}

func (n *node) Decide() (ident.Value, bool) {
	if n.cfg.IsTransmitter() {
		return n.cfg.Value, true
	}
	if n.nextracted == 1 {
		return n.extracted[0], true
	}
	return ident.V0, true
}

// extract records a newly extracted value.
func (n *node) extract(v ident.Value) {
	n.extracted[n.nextracted] = v
	n.nextracted++
}
