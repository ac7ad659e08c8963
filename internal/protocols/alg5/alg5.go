package alg5

import (
	"fmt"

	"byzex/internal/protocol"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg4"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// Protocol is Algorithm 5 with tree-size parameter S (Lemma 5's s; the tree
// capacity is rounded up to the next 2^λ − 1). Theorem 7 uses S = t.
type Protocol struct {
	// S is the binary-tree size parameter, 1 ≤ S. Larger S means fewer
	// phases spent on Algorithm 4 exchanges but longer subtree walks.
	S int

	// DisablePoW is an ablation switch: when set, active processors
	// activate *every* subtree in every block instead of only those with a
	// proof of work, and roots accept activations without checking one.
	// Agreement still holds, but the message count loses the O(t²+nt/s)
	// bound — BenchmarkAblationPoW quantifies exactly what the paper's
	// proof-of-work machinery buys.
	DisablePoW bool
}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (p Protocol) Name() string {
	if p.DisablePoW {
		return fmt.Sprintf("alg5(s=%d,nopow)", p.S)
	}
	return fmt.Sprintf("alg5(s=%d)", p.S)
}

// Check implements protocol.Protocol.
func (p Protocol) Check(n, t int) error {
	_, err := newLayout(n, t, p.S, p.DisablePoW)
	return err
}

// Phases implements protocol.Protocol.
func (p Protocol) Phases(n, t int) int {
	ly, err := newLayout(n, t, p.S, p.DisablePoW)
	if err != nil {
		return 0
	}
	return ly.lastPhase
}

// Segment is one contiguous phase range of the Algorithm 5 schedule, for
// per-stage message accounting (experiment E13).
type Segment struct {
	// Name identifies the stage ("alg2", "fan-out", "block 3", ...).
	Name string
	// First and Last are the inclusive engine-phase bounds. Messages sent
	// during [First, Last] belong to the segment.
	First, Last int
}

// Segments returns the schedule decomposition for the given parameters
// (nil if the configuration is invalid).
func (p Protocol) Segments(n, t int) []Segment {
	ly, err := newLayout(n, t, p.S, p.DisablePoW)
	if err != nil {
		return nil
	}
	segs := []Segment{{Name: "alg2", First: 1, Last: 3*t + 3}}
	if ly.mode == modeAlg2Only {
		return segs
	}
	segs = append(segs, Segment{Name: "fan-out", First: 3*t + 4, Last: 3*t + 4})
	if ly.mode == modeFanout {
		return segs
	}
	for x := ly.lambda; x >= 1; x-- {
		segs = append(segs, Segment{Name: fmt.Sprintf("block %d", x), First: ly.blockStart(x), Last: ly.blockStart(x-1) - 1})
	}
	segs = append(segs, Segment{Name: "block 0 (direct)", First: ly.lastPhase, Last: ly.lastPhase})
	return segs
}

// NewRun implements protocol.Protocol: the layout is computed once per run,
// and every kind of per-processor state — active and passive nodes, the core
// actives' Algorithm 2 state, the actives' passive sets, π tables and
// Algorithm 4 groups — is carved from one block sized to the run.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	ly, err := newLayout(n, t, p.S, p.DisablePoW)
	if err != nil {
		return nil, err
	}
	actives := len(ly.actives)
	r := &run{
		ly:       ly,
		actives:  sig.NewBlocks[activeNode](actives, protocol.Overflow),
		cores:    sig.NewBlocks[alg2.Core](2*t+1, protocol.Overflow),
		passives: sig.NewBlocks[passiveNode](n-actives, protocol.Overflow),
	}
	if ly.mode == modeFull {
		m := n - actives
		r.sets = sig.NewBlocks[bool](actives*2*m, protocol.Overflow)
		r.counts = sig.NewBlocks[piCount](actives*m, protocol.Overflow)
		r.sources = sig.NewBlocks[piSource](actives*actives, protocol.Overflow)
		r.chains = sig.NewBlocks[sig.Chain](actives, protocol.Overflow)
		if r.g4, err = alg4.NewGroups(ly.actives); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// run builds one run's nodes. Its layout is the one every node points to.
type run struct {
	ly       layout
	actives  sig.Blocks[activeNode]
	cores    sig.Blocks[alg2.Core]
	passives sig.Blocks[passiveNode]
	// modeFull only: each active's B and F flags, π counts and counted
	// strings, the first chain slot of its activations, and Algorithm 4
	// state.
	sets    sig.Blocks[bool]
	counts  sig.Blocks[piCount]
	sources sig.Blocks[piSource]
	chains  sig.Blocks[sig.Chain]
	g4      *alg4.Groups
}

// NewNode implements protocol.Builder.
func (r *run) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	if err := cfg.ValidateRun(r.ly.n, r.ly.t); err != nil {
		return nil, err
	}
	if err := cfg.RequireBinaryValue(); err != nil {
		return nil, err
	}
	if cfg.Transmitter != 0 {
		return nil, fmt.Errorf("%w: alg5 assumes transmitter 0", protocol.ErrBadParams)
	}
	if r.ly.isActive(cfg.ID) {
		return r.newActive(cfg)
	}
	return r.newPassive(cfg)
}
