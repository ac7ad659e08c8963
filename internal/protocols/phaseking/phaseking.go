// Package phaseking implements the Phase King consensus algorithm of
// Berman, Garay and Perry in its simple n > 4t form, adapted to the
// Byzantine-broadcast interface of this module (the transmitter first
// distributes its value, then the system runs consensus on the received
// values). It complements the LSP/EIG baseline on the unauthenticated
// side: EIG is message-light but keeps exponential state in t, Phase King
// is polynomial everywhere — n(n-1)(t+1) + O(nt) messages across 2t+3
// phases — at the price of a worse resilience ratio.
//
//	Phase 0:            the transmitter broadcasts its value; everybody
//	                    adopts what arrives (default 0).
//	Round 1 of king k:  everybody broadcasts its current value and counts.
//	Round 2 of king k:  processor k broadcasts its majority value; each
//	                    processor keeps its own majority if it saw more
//	                    than n/2 + t agreeing votes, else adopts the
//	                    king's.
//
// With t+1 kings at least one is correct, and n > 4t makes a
// super-majority sticky: after the correct king's phase all correct
// processors agree and never diverge again.
package phaseking

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// Protocol is the Phase King baseline.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "phase-king" }

// Check implements protocol.Protocol: the simple variant needs n > 4t.
func (Protocol) Check(n, t int) error {
	if t < 0 || n <= 4*t || n < 2 {
		return fmt.Errorf("%w: phase-king requires n > 4t (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	return nil
}

// Phases implements protocol.Protocol: the phase-0 broadcast plus two
// rounds per king.
func (Protocol) Phases(_, t int) int { return 1 + 2*(t+1) }

// MsgUpperBound is the closed-form message count: the broadcast plus a
// full exchange per king round 1 and a king broadcast per round 2.
func MsgUpperBound(n, t int) int { return (n - 1) + (t+1)*(n*(n-1)+(n-1)) }

// NewRun implements protocol.Protocol.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	return protocol.Uniform(p, n, t, func(nd *node, cfg protocol.NodeConfig) error {
		*nd = node{cfg: cfg, current: ident.V0}
		return nil
	})
}

// Message tags.
const (
	tagInit byte = 0x71 // transmitter's phase-0 value
	tagVote byte = 0x72 // round 1 vote
	tagKing byte = 0x73 // round 2 king value
)

// encode returns the payload tag followed by v, carved from ctx's slab.
func encode(ctx *sim.Context, tag byte, v ident.Value) []byte {
	w := ctx.Slab().Writer(1 + wire.IntLen(int64(v)))
	w.Byte(tag)
	w.Value(v)
	return w.Bytes()
}

func decode(payload []byte, wantTag byte) (ident.Value, bool) {
	if len(payload) == 0 || payload[0] != wantTag {
		return 0, false
	}
	r := wire.NewReader(payload[1:])
	v := r.Value()
	if r.Finish() != nil {
		return 0, false
	}
	return v, true
}

type node struct {
	cfg     protocol.NodeConfig
	current ident.Value

	// Round-1 state for the in-flight king phase.
	maj ident.Value
	cnt int
}

var _ sim.Node = (*node)(nil)

// kingOf returns the king of king-phase k (0-based), skipping nobody: the
// first t+1 processors each take one phase.
func kingOf(k int) ident.ProcID { return ident.ProcID(k) }

func (n *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	phase := ctx.Phase()
	t := ctx.T()

	switch {
	case phase == 1:
		// Phase 0: the transmitter distributes its value.
		if n.cfg.IsTransmitter() {
			n.current = n.cfg.Value
			return protocol.Broadcast(ctx, encode(ctx, tagInit, n.cfg.Value))
		}
		return nil

	case phase == 2:
		// Adopt the transmitter's value, then cast the first vote.
		for _, env := range inbox {
			if env.From != n.cfg.Transmitter {
				continue
			}
			if v, ok := decode(env.Payload, tagInit); ok {
				n.current = v
				break
			}
		}
		return protocol.Broadcast(ctx, encode(ctx, tagVote, n.current))

	case phase > 2 && phase <= 2+2*(t+1):
		// King phase k occupies phases 2k+2 (votes out in the previous
		// step, counted here; king speaks) and 2k+3 (king's value counted;
		// next phase's votes go out).
		rel := phase - 3 // 0-based within the king schedule
		k := rel / 2
		if rel%2 == 0 {
			// Count the votes sent last phase — one per sender (a faulty
			// processor must not stuff the ballot with duplicates).
			counts := make(map[ident.Value]int)
			var voted ident.Set
			for _, env := range inbox {
				if voted.Has(env.From) {
					continue
				}
				if v, ok := decode(env.Payload, tagVote); ok {
					voted.Add(env.From)
					counts[v]++
				}
			}
			counts[n.current]++ // our own vote
			n.maj, n.cnt = majority(counts)
			// The king announces its majority.
			if kingOf(k) == n.cfg.ID {
				return protocol.Broadcast(ctx, encode(ctx, tagKing, n.maj))
			}
			return nil
		}
		// Resolve against the king's announcement, then vote for the next
		// king phase (if any). Broadcast skips the sender, so the king
		// takes its own announcement from n.maj.
		kingVal := ident.V0
		if kingOf(k) == n.cfg.ID {
			kingVal = n.maj
		}
		for _, env := range inbox {
			if env.From != kingOf(k) {
				continue
			}
			if v, ok := decode(env.Payload, tagKing); ok {
				kingVal = v
				break
			}
		}
		if n.cnt > ctx.N()/2+t {
			n.current = n.maj
		} else {
			n.current = kingVal
		}
		if k+1 <= t { // another king phase follows
			return protocol.Broadcast(ctx, encode(ctx, tagVote, n.current))
		}
		return nil
	}
	return nil
}

// majority returns the plurality value and its count, ties broken toward
// the smaller value for determinism.
func majority(counts map[ident.Value]int) (ident.Value, int) {
	var best ident.Value
	bestCnt := -1
	for v, c := range counts {
		if c > bestCnt || (c == bestCnt && v < best) {
			best, bestCnt = v, c
		}
	}
	return best, bestCnt
}

func (n *node) Decide() (ident.Value, bool) { return n.current, true }
