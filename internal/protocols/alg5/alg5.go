package alg5

import (
	"fmt"

	"byzex/internal/protocol"
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

// NewNode implements protocol.Protocol.
func (p Protocol) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.RequireBinaryValue(); err != nil {
		return nil, err
	}
	if cfg.Transmitter != 0 {
		return nil, fmt.Errorf("%w: alg5 assumes transmitter 0", protocol.ErrBadParams)
	}
	ly, err := newLayout(cfg.N, cfg.T, p.S, p.DisablePoW)
	if err != nil {
		return nil, err
	}
	if ly.isActive(cfg.ID) {
		return newActiveNode(cfg, ly)
	}
	return newPassiveNode(cfg, ly)
}
