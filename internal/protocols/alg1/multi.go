package alg1

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// MultiProtocol is the multi-valued generalization the paper alludes to
// ("if the transmitter can send more than two values, one has to modify
// the algorithms slightly"): correct v-messages exist for *every* value v,
// every processor relays the first correct message per distinct value
// (capped at two distinct values — once two circulate, every correct
// processor's decision is already forced to the default), and the decision
// function picks the unique circulating value or falls to the default.
//
// Correctness follows the Theorem 3 argument value-by-value: whatever
// correct v-message any correct processor receives by phase t+2, every
// correct processor receives one by phase t+2 (a correct signer among the
// first t+1 links relayed it in time). Hence the sets of circulating
// values coincide across correct processors, and "unique value or default"
// agrees. The relay cap doubles the Theorem 3 message bound: ≤ 2(2t²+2t).
type MultiProtocol struct{}

var _ protocol.Protocol = MultiProtocol{}

// MultiMsgUpperBound is the message bound for the multi-valued variant:
// twice Theorem 3's, since each processor relays at most two values.
func MultiMsgUpperBound(t int) int { return 2 * (2*t*t + 2*t) }

// Name implements protocol.Protocol.
func (MultiProtocol) Name() string { return "alg1-multi" }

// Check implements protocol.Protocol.
func (MultiProtocol) Check(n, t int) error { return Protocol{}.Check(n, t) }

// Phases implements protocol.Protocol.
func (MultiProtocol) Phases(_, t int) int { return LastPhase(t) }

// NewNode implements protocol.Protocol.
func (MultiProtocol) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Transmitter != 0 {
		return nil, fmt.Errorf("%w: alg1-multi assumes transmitter 0", protocol.ErrBadParams)
	}
	return &multiNode{
		cfg:  cfg,
		seen: make(map[ident.Value]sig.SignedValue),
	}, nil
}

type multiNode struct {
	cfg protocol.NodeConfig
	// seen maps circulating values to the first correct message received
	// for them (capped at two entries).
	seen map[ident.Value]sig.SignedValue
	// relayQueue holds values to relay this phase.
	relayQueue []sig.SignedValue
}

var _ sim.Node = (*multiNode)(nil)

// side classifies a group index as in the binary core.
func (m *multiNode) side(idx int) int {
	switch {
	case idx == 0:
		return 0
	case idx <= m.cfg.T:
		return 1
	default:
		return 2
	}
}

func (m *multiNode) otherSide() []ident.ProcID {
	t := m.cfg.T
	var lo, hi int
	if m.side(int(m.cfg.ID)) == 1 {
		lo, hi = t+1, 2*t
	} else {
		lo, hi = 1, t
	}
	out := make([]ident.ProcID, 0, t)
	for i := lo; i <= hi; i++ {
		out = append(out, ident.ProcID(i))
	}
	return out
}

// isCorrectMessage validates a correct v-message of length k for this
// receiver (same path predicate as the binary core, any value).
func (m *multiNode) isCorrectMessage(payload []byte, from ident.ProcID, k int) (sig.SignedValue, bool) {
	sv, err := sig.UnmarshalSignedValue(payload)
	if err != nil || len(sv.Chain) != k {
		return sig.SignedValue{}, false
	}
	prev := -1
	seen := make(ident.Set, k+1)
	for i, link := range sv.Chain {
		idx := int(link.Signer) // the group is the whole system in id order
		if idx < 0 || idx >= m.cfg.N || !seen.Add(link.Signer) {
			return sig.SignedValue{}, false
		}
		s := m.side(idx)
		switch {
		case i == 0:
			if s != 0 {
				return sig.SignedValue{}, false
			}
		case s == 0:
			return sig.SignedValue{}, false
		case i > 1 && s == prev:
			return sig.SignedValue{}, false
		}
		prev = s
	}
	if seen.Has(m.cfg.ID) {
		return sig.SignedValue{}, false
	}
	if k > 1 && m.side(int(m.cfg.ID)) == prev {
		return sig.SignedValue{}, false
	}
	if from != sv.Chain[len(sv.Chain)-1].Signer {
		return sig.SignedValue{}, false
	}
	if sv.Verify(m.cfg.Verifier) != nil {
		return sig.SignedValue{}, false
	}
	return sv, true
}

func (m *multiNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t := m.cfg.T
	phase := ctx.Phase()

	if m.cfg.IsTransmitter() {
		if phase == 1 {
			sv := sig.NewSignedValue(m.cfg.Signer, m.cfg.Value)
			return protocol.SendToAll(ctx, ident.Range(m.cfg.N)[1:], sv.Marshal(), sv.Chain)
		}
		return nil
	}

	if phase > 1 {
		for _, env := range inbox {
			sv, ok := m.isCorrectMessage(env.Payload, env.From, phase-1)
			if !ok {
				continue
			}
			if _, dup := m.seen[sv.Value]; dup {
				continue
			}
			if len(m.seen) >= 2 {
				continue // decision already forced to the default
			}
			m.seen[sv.Value] = sv
			m.relayQueue = append(m.relayQueue, sv)
		}
	}

	if phase >= 2 && phase <= t+2 {
		for _, sv := range m.relayQueue {
			signed := sv.CoSign(m.cfg.Signer)
			if err := protocol.SendToAll(ctx, m.otherSide(), signed.Marshal(), signed.Chain); err != nil {
				return err
			}
		}
		m.relayQueue = m.relayQueue[:0]
	}
	return nil
}

// Decide picks the unique circulating value or the default.
func (m *multiNode) Decide() (ident.Value, bool) {
	if m.cfg.IsTransmitter() {
		return m.cfg.Value, true
	}
	if len(m.seen) == 1 {
		for v := range m.seen {
			return v, true
		}
	}
	return ident.V0, true
}
