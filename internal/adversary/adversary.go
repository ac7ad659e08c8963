package adversary

import (
	"fmt"
	mrand "math/rand"
	"slices"

	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// State is the shared collusion state for one run's faulty coalition.
type State struct {
	// Faulty is the corrupted set.
	Faulty ident.Set
	// Signers holds the signing handles of every corrupted processor.
	Signers map[ident.ProcID]sig.Signer
	// seed is the run's seed, from which each processor's stream derives.
	seed int64
}

// NewState builds collusion state for the given faulty set, collecting the
// corrupted processors' signers from the scheme.
func NewState(faulty ident.Set, scheme sig.Scheme, seed int64) (*State, error) {
	st := &State{
		Faulty:  faulty.Clone(),
		Signers: make(map[ident.ProcID]sig.Signer, faulty.Len()),
		seed:    seed,
	}
	var err error
	faulty.Each(func(id ident.ProcID) {
		if err != nil {
			return
		}
		s, serr := scheme.Signer(id)
		if serr != nil {
			err = fmt.Errorf("adversary: collecting signer for %v: %w", id, serr)
			return
		}
		st.Signers[id] = s
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// rng returns processor id's private randomness, seeded from (seed, id)
// through faultnet.SplitMix64 as the fault plans' coins are. What one faulty
// processor draws therefore does not depend on when the others draw: the TCP
// transport steps them concurrently.
func (s *State) rng(id ident.ProcID) *mrand.Rand {
	x := faultnet.SplitMix64(uint64(s.seed) ^ (uint64(int64(id))+2)*0x9e3779b97f4a7c15)
	return mrand.New(mrand.NewSource(int64(x)))
}

// Env gives a strategy what it needs to build Byzantine nodes: the builder
// of the run under attack (so wrappers can embed correct inner nodes, built
// as the run's correct processors are) and the shared collusion state.
type Env struct {
	Run   protocol.Builder
	State *State
}

// Adversary selects corruptions and builds Byzantine nodes.
type Adversary interface {
	// Name identifies the strategy in reports.
	Name() string
	// Corrupt returns the set of processors to corrupt for an (n, t) run.
	// Implementations must return at most t identities.
	Corrupt(n, t int, transmitter ident.ProcID, rng *mrand.Rand) ident.Set
	// NewNode builds the Byzantine state machine for one corrupted
	// processor.
	NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error)
}

// ---------------------------------------------------------------------------
// Silent: corrupted processors never send anything (crash-from-start).

// Silent corrupts up to t non-transmitter processors that then never send.
type Silent struct{}

var _ Adversary = Silent{}

// Name implements Adversary.
func (Silent) Name() string { return "silent" }

// Corrupt implements Adversary: the last t processors (never the
// transmitter) go silent.
func (Silent) Corrupt(n, t int, transmitter ident.ProcID, _ *mrand.Rand) ident.Set {
	return lastNonTransmitter(n, t, transmitter)
}

// NewNode implements Adversary.
func (Silent) NewNode(protocol.NodeConfig, *Env) (sim.Node, error) {
	return &silentNode{}, nil
}

type silentNode struct{}

func (*silentNode) Step(*sim.Context, []sim.Envelope) error { return nil }

func (*silentNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// Crash: behave correctly, then stop forever after a given phase.

// Crash runs the real protocol until CrashAfter, then goes silent. With
// CrashAfter=0 the victims are silent from the start but still *receive*.
type Crash struct {
	// CrashAfter is the last phase during which victims behave correctly.
	CrashAfter int
}

var _ Adversary = Crash{}

// Name implements Adversary.
func (c Crash) Name() string { return fmt.Sprintf("crash@%d", c.CrashAfter) }

// Corrupt implements Adversary.
func (Crash) Corrupt(n, t int, transmitter ident.ProcID, _ *mrand.Rand) ident.Set {
	return lastNonTransmitter(n, t, transmitter)
}

// NewNode implements Adversary.
func (c Crash) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	inner, err := env.Run.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	return &crashNode{inner: inner, after: c.CrashAfter}, nil
}

type crashNode struct {
	inner sim.Node
	after int
}

func (c *crashNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	if ctx.Phase() > c.after {
		return nil
	}
	return c.inner.Step(ctx, inbox)
}

func (c *crashNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// SplitBrain: the corrupted transmitter (and optionally co-conspirators)
// runs two correct inner nodes, one initialized with value 0 and one with
// value 1, and routes their traffic so processors below the split point see
// the 0-execution and the rest see the 1-execution. This is the classical
// equivocation that Theorem 1's proof formalizes.

// SplitBrain corrupts the transmitter only.
type SplitBrain struct {
	// LowValue/HighValue are the two personalities' initial values.
	LowValue, HighValue ident.Value
	// SplitAt: processors with id < SplitAt see the LowValue personality.
	SplitAt ident.ProcID
}

var _ Adversary = SplitBrain{}

// Name implements Adversary.
func (s SplitBrain) Name() string { return "split-brain" }

// Corrupt implements Adversary: only the transmitter.
func (SplitBrain) Corrupt(_, t int, transmitter ident.ProcID, _ *mrand.Rand) ident.Set {
	if t < 1 {
		return ident.Set{}
	}
	return ident.NewSet(transmitter)
}

// NewNode implements Adversary.
func (s SplitBrain) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	lowCfg, highCfg := cfg, cfg
	lowCfg.Value = s.LowValue
	highCfg.Value = s.HighValue
	low, err := env.Run.NewNode(lowCfg)
	if err != nil {
		return nil, err
	}
	high, err := env.Run.NewNode(highCfg)
	if err != nil {
		return nil, err
	}
	split := s.SplitAt
	return &splitBrainNode{
		low: low, high: high,
		toLow:  func(to ident.ProcID) bool { return to < split },
		toHigh: func(to ident.ProcID) bool { return to >= split },
	}, nil
}

type splitBrainNode struct {
	low, high       sim.Node
	toLow, toHigh   func(ident.ProcID) bool // each personality's audience, fixed for the run
	lowCtx, highCtx sim.Context             // re-pointed each phase
}

func (s *splitBrainNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	// Run both personalities on the same inbox; filter each one's sends so
	// that only its own audience receives them.
	if err := s.low.Step(ctx.WithSendFilter(&s.lowCtx, s.toLow), inbox); err != nil {
		return fmt.Errorf("split-brain low personality: %w", err)
	}
	if err := s.high.Step(ctx.WithSendFilter(&s.highCtx, s.toHigh), inbox); err != nil {
		return fmt.Errorf("split-brain high personality: %w", err)
	}
	return nil
}

func (s *splitBrainNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// MultiFaced: the k-way generalization of SplitBrain for multi-valued
// domains — the corrupted transmitter maintains one correct personality per
// value and shows each personality to its own slice of the audience.

// MultiFaced corrupts the transmitter and equivocates between len(Values)
// personalities.
type MultiFaced struct {
	// Values are the personalities' initial values; audience slice i (of
	// n/len(Values) processors, the last slice taking the remainder) sees
	// personality i.
	Values []ident.Value
}

var _ Adversary = MultiFaced{}

// Name implements Adversary.
func (m MultiFaced) Name() string { return fmt.Sprintf("multi-faced(%d)", len(m.Values)) }

// Corrupt implements Adversary: only the transmitter.
func (MultiFaced) Corrupt(_, t int, transmitter ident.ProcID, _ *mrand.Rand) ident.Set {
	if t < 1 {
		return ident.Set{}
	}
	return ident.NewSet(transmitter)
}

// NewNode implements Adversary.
func (m MultiFaced) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	if len(m.Values) == 0 {
		return nil, fmt.Errorf("adversary: multi-faced needs at least one value")
	}
	k := len(m.Values)
	slice := (cfg.N + k - 1) / k
	node := &multiFacedNode{faces: make([]face, k)}
	for i, v := range m.Values {
		pcfg := cfg
		pcfg.Value = v
		inner, err := env.Run.NewNode(pcfg)
		if err != nil {
			return nil, err
		}
		lo, hi, last := ident.ProcID(i*slice), ident.ProcID((i+1)*slice), i == k-1
		node.faces[i] = face{node: inner, audience: func(to ident.ProcID) bool {
			return to >= lo && (last || to < hi)
		}}
	}
	return node, nil
}

type multiFacedNode struct {
	faces []face
}

// face is one personality: its node, its audience (fixed for the run) and the
// context its sends go through, re-pointed each phase.
type face struct {
	node     sim.Node
	audience func(ident.ProcID) bool
	ctx      sim.Context
}

func (m *multiFacedNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	for i := range m.faces {
		f := &m.faces[i]
		if err := f.node.Step(ctx.WithSendFilter(&f.ctx, f.audience), inbox); err != nil {
			return fmt.Errorf("multi-faced personality %d: %w", i, err)
		}
	}
	return nil
}

func (m *multiFacedNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// StarveB: the Theorem 2 construction. The corrupted set B behaves like
// correct processors except that each member (i) never sends to other B
// members and (ii) ignores the first IgnoreFirst messages it receives from
// outside B.

// StarveB corrupts an explicit set B with the starvation behaviour.
type StarveB struct {
	// B is the corrupted set (size ⌊1+t/2⌋ in the proof).
	B ident.Set
	// IgnoreFirst is how many incoming messages from outside B each member
	// discards (⌈t/2⌉ in the proof).
	IgnoreFirst int
}

var _ Adversary = StarveB{}

// StarveSet is the B of Theorem 2's construction: the ⌊1+t/2⌋ highest
// identities other than the transmitter, capped at the fault budget t (at
// t = 0 the one member would be over it).
func StarveSet(n, t int, transmitter ident.ProcID) ident.Set {
	return lastNonTransmitter(n, min(1+t/2, t), transmitter)
}

// Name implements Adversary.
func (s StarveB) Name() string { return "starve-b" }

// Corrupt implements Adversary.
func (s StarveB) Corrupt(int, int, ident.ProcID, *mrand.Rand) ident.Set { return s.B.Clone() }

// NewNode implements Adversary.
func (s StarveB) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	inner, err := env.Run.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	b := s.B
	return &starveNode{
		inner: inner, b: b, remaining: s.IgnoreFirst,
		outsideB: func(to ident.ProcID) bool { return !b.Has(to) },
	}, nil
}

type starveNode struct {
	inner     sim.Node
	b         ident.Set
	remaining int
	outsideB  func(ident.ProcID) bool // the send filter, fixed for the run
	fctx      sim.Context             // re-pointed each phase
	kept      []sim.Envelope          // the inbox the inner node is handed, reused each phase
}

func (s *starveNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	// Discard the first `remaining` messages from outside B; also discard
	// everything from inside B (B members send nothing to each other in the
	// construction, but a defensive filter keeps the behaviour exact even
	// if another strategy shares the run). The last phase's inbox is
	// recycled: the inner node was handed it for that Step only.
	sig.Recycle(s.kept, sim.Poisoned)
	kept := slices.Grow(s.kept[:0], len(inbox))
	for _, e := range inbox {
		if s.b.Has(e.From) {
			continue
		}
		if s.remaining > 0 {
			s.remaining--
			continue
		}
		kept = append(kept, e)
	}
	s.kept = kept
	return s.inner.Step(ctx.WithSendFilter(&s.fctx, s.outsideB), kept)
}

func (s *starveNode) Decide() (ident.Value, bool) { return s.inner.Decide() }

// ---------------------------------------------------------------------------
// Garbage: stress strategy that sprays malformed payloads and forged
// signature material at random recipients every phase. Protocols must
// discard all of it; agreement must still hold.

// Garbage corrupts up to t processors (never the transmitter).
type Garbage struct {
	// PerPhase is how many junk messages each corrupted node sends per
	// phase (default 3 when zero).
	PerPhase int
}

var _ Adversary = Garbage{}

// Name implements Adversary.
func (Garbage) Name() string { return "garbage" }

// Corrupt implements Adversary.
func (Garbage) Corrupt(n, t int, transmitter ident.ProcID, _ *mrand.Rand) ident.Set {
	return lastNonTransmitter(n, t, transmitter)
}

// NewNode implements Adversary.
func (g Garbage) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	per := g.PerPhase
	if per <= 0 {
		per = 3
	}
	return &garbageNode{id: cfg.ID, n: cfg.N, per: per, rng: env.State.rng(cfg.ID)}, nil
}

type garbageNode struct {
	id  ident.ProcID
	n   int
	per int
	rng *mrand.Rand
}

func (g *garbageNode) Step(ctx *sim.Context, _ []sim.Envelope) error {
	for i := 0; i < g.per; i++ {
		to := ident.ProcID(g.rng.Intn(g.n))
		if to == g.id {
			continue
		}
		payload := make([]byte, 1+g.rng.Intn(64))
		_, _ = g.rng.Read(payload)
		// Errors from junk sends (e.g. after the last phase) are part of
		// the game; the adversary does not get to abort the run.
		_ = ctx.Send(to, payload, nil, 0)
	}
	return nil
}

func (g *garbageNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// Replay: the Theorem 1 indistinguishability attack. Each corrupted
// processor replays, toward the victim p, exactly the labels it sent in
// recorded history H, and toward everyone else the labels it sent in
// recorded history G.

// ReplaySchedule is the per-sender script extracted from two recorded
// histories. Build it with lowerbound.BuildReplay.
type ReplaySchedule struct {
	// Victim is the processor that must see history H.
	Victim ident.ProcID
	// ToVictim[phase] are the labels this sender sent to the victim in H.
	ToVictim map[int][]ReplayEdge
	// ToOthers[phase] are the labels this sender sent to everyone else in G.
	ToOthers map[int][]ReplayEdge
}

// ReplayEdge is one scripted send.
type ReplayEdge struct {
	To       ident.ProcID
	Label    []byte
	Signers  []ident.ProcID
	SigTotal int
}

// Replay corrupts an explicit set and plays per-sender scripts.
type Replay struct {
	// FaultySet is the corrupted coalition A(p).
	FaultySet ident.Set
	// Schedules maps each corrupted sender to its script.
	Schedules map[ident.ProcID]*ReplaySchedule
}

var _ Adversary = Replay{}

// Name implements Adversary.
func (Replay) Name() string { return "replay" }

// Corrupt implements Adversary.
func (r Replay) Corrupt(int, int, ident.ProcID, *mrand.Rand) ident.Set {
	return r.FaultySet.Clone()
}

// NewNode implements Adversary.
func (r Replay) NewNode(cfg protocol.NodeConfig, _ *Env) (sim.Node, error) {
	sched, ok := r.Schedules[cfg.ID]
	if !ok {
		return nil, fmt.Errorf("adversary: no replay schedule for %v", cfg.ID)
	}
	return &replayNode{sched: sched}, nil
}

type replayNode struct {
	sched *ReplaySchedule
}

func (r *replayNode) Step(ctx *sim.Context, _ []sim.Envelope) error {
	ph := ctx.Phase()
	for _, e := range r.sched.ToVictim[ph] {
		if err := ctx.Send(e.To, e.Label, e.Signers, e.SigTotal); err != nil {
			return err
		}
	}
	for _, e := range r.sched.ToOthers[ph] {
		if err := ctx.Send(e.To, e.Label, e.Signers, e.SigTotal); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// helpers

// lastNonTransmitter corrupts the t highest identities, skipping the
// transmitter.
func lastNonTransmitter(n, t int, transmitter ident.ProcID) ident.Set {
	var out ident.Set
	for id := n - 1; id >= 0 && out.Len() < t; id-- {
		p := ident.ProcID(id)
		if p == transmitter {
			continue
		}
		out.Add(p)
	}
	return out
}
