// Package strawman implements deliberately *incorrect* cheap protocols.
// They exist to make the paper's lower bounds executable: each one beats a
// lower bound's message/signature budget, and the corresponding adversary
// construction from the proof of Theorem 1 or Theorem 2 demonstrably breaks
// it. None of these protocols achieves Byzantine Agreement for t ≥ 1.
package strawman

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// ---------------------------------------------------------------------------
// Broadcast: the transmitter signs and broadcasts once; everybody decides
// whatever arrived (default 0). n-1 messages, n-1 signatures — far below
// n(t+1)/4 for t ≥ 4 — and a single equivocating transmitter (|A(p)| = 1 ≤ t
// in Theorem 1's construction) splits the system.

// Broadcast is the 1-phase, n-1-message strawman.
type Broadcast struct{}

var _ protocol.Protocol = Broadcast{}

// Name implements protocol.Protocol.
func (Broadcast) Name() string { return "strawman-broadcast" }

// Check implements protocol.Protocol.
func (Broadcast) Check(n, t int) error {
	if n < 2 || t < 0 {
		return fmt.Errorf("%w: n=%d t=%d", protocol.ErrBadParams, n, t)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (Broadcast) Phases(int, int) int { return 1 }

// NewRun implements protocol.Protocol.
func (b Broadcast) NewRun(n, t int) (protocol.Builder, error) {
	return protocol.Uniform(b, n, t, func(nd *bcastNode, cfg protocol.NodeConfig) error {
		nd.cfg = cfg
		return nil
	})
}

type bcastNode struct {
	cfg     protocol.NodeConfig
	got     ident.Value
	decided bool
}

func (b *bcastNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	slab := ctx.Slab()
	if b.cfg.IsTransmitter() {
		if ctx.Phase() == 1 {
			sv := slab.SignValue(b.cfg.Signer, b.cfg.Value)
			if err := protocol.Broadcast(ctx, slab.Marshal(sv), sv.Chain); err != nil {
				return err
			}
		}
		return nil
	}
	for _, env := range inbox {
		sv, err := slab.Unmarshal(env.Payload)
		if err != nil {
			continue
		}
		if len(sv.Chain) != 1 || sv.Chain[0].Signer != b.cfg.Transmitter {
			continue
		}
		if sv.Verify(b.cfg.Verifier) != nil {
			continue
		}
		b.got, b.decided = sv.Value, true
	}
	return nil
}

func (b *bcastNode) Decide() (ident.Value, bool) {
	if b.cfg.IsTransmitter() {
		return b.cfg.Value, true
	}
	if b.decided {
		return b.got, true
	}
	return ident.V0, true // default when starved — exactly the Theorem 2 weakness
}

// ---------------------------------------------------------------------------
// ThinRelay: the transmitter sends its signed value to a committee of
// RelayWidth processors, which forward it (with the transmitter's signature
// only) to everybody. With RelayWidth ≤ t the committee plus transmitter
// form a coalition of ≤ t+1 whose equivocation splits the system, and each
// processor p outside the committee exchanges signatures with only
// RelayWidth+1 ≤ t+1 others — but receives only committee-relayed copies,
// so |A(p)| ≤ t+1 and the Theorem 1 replay attack applies with coalition
// A(p) minus the transmitter.

// ThinRelay is the committee-relay strawman.
type ThinRelay struct {
	// RelayWidth is the committee size (processors 1..RelayWidth).
	RelayWidth int
}

var _ protocol.Protocol = ThinRelay{}

// Name implements protocol.Protocol.
func (r ThinRelay) Name() string { return fmt.Sprintf("strawman-thinrelay%d", r.RelayWidth) }

// Check implements protocol.Protocol.
func (r ThinRelay) Check(n, t int) error {
	if n < 3 || r.RelayWidth < 1 || r.RelayWidth >= n-1 {
		return fmt.Errorf("%w: thinrelay needs 1 ≤ width < n-1 (n=%d width=%d)", protocol.ErrBadParams, n, r.RelayWidth)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (ThinRelay) Phases(int, int) int { return 2 }

// NewRun implements protocol.Protocol.
func (r ThinRelay) NewRun(n, t int) (protocol.Builder, error) {
	return protocol.Uniform(r, n, t, func(nd *thinNode, cfg protocol.NodeConfig) error {
		if cfg.Transmitter != 0 {
			return fmt.Errorf("%w: thinrelay assumes transmitter 0", protocol.ErrBadParams)
		}
		*nd = thinNode{cfg: cfg, width: r.RelayWidth}
		return nil
	})
}

type thinNode struct {
	cfg     protocol.NodeConfig
	width   int
	got     ident.Value
	decided bool
	relay   *sig.SignedValue
}

func (r *thinNode) isCommittee() bool {
	return r.cfg.ID >= 1 && int(r.cfg.ID) <= r.width
}

func (r *thinNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	slab := ctx.Slab()
	switch {
	case r.cfg.IsTransmitter():
		if ctx.Phase() == 1 {
			sv := slab.SignValue(r.cfg.Signer, r.cfg.Value)
			committee := make([]ident.ProcID, r.width)
			for i := range committee {
				committee[i] = ident.ProcID(i + 1)
			}
			if err := protocol.SendToAll(ctx, committee, slab.Marshal(sv), sv.Chain); err != nil {
				return err
			}
		}
	case r.isCommittee():
		for _, env := range inbox {
			sv, err := slab.Unmarshal(env.Payload)
			if err != nil || len(sv.Chain) != 1 || sv.Chain[0].Signer != r.cfg.Transmitter {
				continue
			}
			if sv.Verify(r.cfg.Verifier) != nil {
				continue
			}
			r.got, r.decided = sv.Value, true
			r.relay = &sv
		}
		if ctx.Phase() == 2 && r.relay != nil {
			if err := protocol.Broadcast(ctx, slab.Marshal(*r.relay), r.relay.Chain); err != nil {
				return err
			}
			r.relay = nil
		}
	default:
		for _, env := range inbox {
			sv, err := slab.Unmarshal(env.Payload)
			if err != nil || len(sv.Chain) != 1 || sv.Chain[0].Signer != r.cfg.Transmitter {
				continue
			}
			if sv.Verify(r.cfg.Verifier) != nil {
				continue
			}
			r.got, r.decided = sv.Value, true
		}
	}
	return nil
}

func (r *thinNode) Decide() (ident.Value, bool) {
	if r.cfg.IsTransmitter() {
		return r.cfg.Value, true
	}
	if r.decided {
		return r.got, true
	}
	return ident.V0, true
}
