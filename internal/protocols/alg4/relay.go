package alg4

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// RelayProtocol is the paper's §5 "obvious" two-phase solution to the
// mutual exchange problem, which Algorithm 4 undercuts for t ≥ √N:
//
//	Select t+1 relay processors. Phase 1: every processor signs and sends
//	its value to every relay. Phase 2: each relay combines the incoming
//	messages with its own value into one long message and sends it to
//	every non-relay.
//
// It sends at most (N−1)(t+1) + (t+1)(N−t−1) = Θ(Nt) messages but gives a
// stronger guarantee than Algorithm 4: *every* correct processor receives
// the value of every correct processor (at least one relay is correct).
// The ablation benchmark BenchmarkAblationExchange locates the crossover
// between the two, reproducing the paper's Θ(Nt) vs O(N^1.5) comparison.
type RelayProtocol struct{}

var _ protocol.Protocol = RelayProtocol{}

// Name implements protocol.Protocol.
func (RelayProtocol) Name() string { return "relay-exchange" }

// Check implements protocol.Protocol.
func (RelayProtocol) Check(n, t int) error {
	if n < 2 || t < 0 || t+1 > n {
		return fmt.Errorf("%w: relay exchange needs t+1 ≤ n (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (RelayProtocol) Phases(int, int) int { return 2 }

// RelayMsgUpperBound is the §5 count (N−1)(t+1) + (t+1)(N−t−1).
func RelayMsgUpperBound(n, t int) int { return (n-1)*(t+1) + (t+1)*(n-t-1) }

// NewRun implements protocol.Protocol: each node's collected slots are
// carved from one block of n².
func (p RelayProtocol) NewRun(n, t int) (protocol.Builder, error) {
	collected := sig.NewBlocks[sig.SignedBytes](n*n, protocol.Overflow)
	return protocol.Uniform(p, n, t, func(nd *relayNode, cfg protocol.NodeConfig) error {
		*nd = relayNode{cfg: cfg, collected: collected.Carve(cfg.N)}
		return nil
	})
}

type relayNode struct {
	cfg protocol.NodeConfig
	// collected[i] is processor i's signed value, its chain empty until one
	// arrives.
	collected []sig.SignedBytes
	// m1 buffers phase 1 receipts for the relay's phase 2 fan-out.
	m1 []sig.SignedBytes
}

var _ sim.Node = (*relayNode)(nil)
var _ Exchanger = (*relayNode)(nil)

// isRelay reports whether id is one of the t+1 relay processors.
func (r *relayNode) isRelay(id ident.ProcID) bool { return int(id) <= r.cfg.T }

// accept validates a single signed value entry.
func (r *relayNode) accept(sb sig.SignedBytes) bool {
	if len(sb.Chain) != 1 {
		return false
	}
	if int(sb.Chain[0].Signer) < 0 || int(sb.Chain[0].Signer) >= r.cfg.N {
		return false
	}
	return sb.Verify(r.cfg.Verifier) == nil
}

func (r *relayNode) record(sb sig.SignedBytes) {
	if slot := &r.collected[sb.Chain[0].Signer]; len(slot.Chain) == 0 {
		*slot = sb
	}
}

func (r *relayNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	slab := ctx.Slab()
	switch ctx.Phase() {
	case 1:
		w := slab.Writer(wire.IntLen(int64(r.cfg.ID))) // OwnValue, carved
		w.Proc(r.cfg.ID)
		own := slab.SignBytes(r.cfg.Signer, w.Bytes())
		r.record(own)
		if r.isRelay(r.cfg.ID) {
			r.m1 = append(r.m1, own)
		}
		payload := encodeValue(slab, own)
		for i := 0; i <= r.cfg.T; i++ {
			relay := ident.ProcID(i)
			if relay == r.cfg.ID {
				continue
			}
			if err := protocol.Send(ctx, relay, payload, own.Chain); err != nil {
				return err
			}
		}
	case 2:
		if !r.isRelay(r.cfg.ID) {
			return nil
		}
		for _, env := range inbox {
			if len(env.Payload) == 0 || env.Payload[0] != tagValue {
				continue
			}
			rd := wire.NewReader(env.Payload[1:])
			sb := sig.DecodeSignedBytes(rd, slab)
			if rd.Finish() != nil || !r.accept(sb) || sb.Chain[0].Signer != env.From {
				continue
			}
			r.m1 = append(r.m1, sb)
			r.record(sb)
		}
		payload := encodeList(slab, r.m1)
		chains := chainsOf(make([]sig.Chain, 0, len(r.m1)), r.m1)
		for i := r.cfg.T + 1; i < r.cfg.N; i++ {
			if err := protocol.Send(ctx, ident.ProcID(i), payload, chains...); err != nil {
				return err
			}
		}
	default:
		// Final delivery: non-relays absorb the combined reports.
		for _, env := range inbox {
			if !r.isRelay(env.From) || len(env.Payload) == 0 || env.Payload[0] != tagList {
				continue
			}
			rd := wire.NewReader(env.Payload[1:])
			cnt := rd.Len()
			if rd.Err() != nil {
				continue
			}
			for i := 0; i < cnt; i++ {
				sb := sig.DecodeSignedBytes(rd, slab)
				if rd.Err() != nil {
					break
				}
				if r.accept(sb) {
					r.record(sb)
				}
			}
		}
	}
	return nil
}

func (r *relayNode) Decide() (ident.Value, bool) { return ident.V0, true }

// Output implements Exchanger; callers must not write to the result.
func (r *relayNode) Output() []sig.SignedBytes { return r.collected }
