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
	// Signers holds the signing handle of every corrupted processor, indexed
	// by id; a correct processor's slot is nil.
	Signers []sig.Signer
	// seed is the run's seed, from which each processor's stream derives.
	seed int64
}

// NewState builds collusion state for the given faulty set, collecting the
// corrupted processors' signers from the scheme.
func NewState(faulty ident.Set, scheme sig.Scheme, seed int64) (*State, error) {
	st := &State{seed: seed}
	ids := faulty.Sorted()
	if len(ids) > 0 {
		st.Signers = make([]sig.Signer, ids[len(ids)-1]+1)
	}
	for _, id := range ids {
		s, err := scheme.Signer(id)
		if err != nil {
			return nil, fmt.Errorf("adversary: collecting signer for %v: %w", id, err)
		}
		st.Signers[id] = s
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
// The tools' "silent" is its fault-plan form (cli.Omission). Silent stays only
// because bench/sweep_large.go builds it, until the ledger's re-baseline; it
// is also the reference cli.TestOmissionPlansMatchWrappers checks against.
type Silent struct{ lastT }

var _ Adversary = Silent{}

// Name implements Adversary.
func (Silent) Name() string { return "silent" }

// NewNode implements Adversary.
func (Silent) NewNode(protocol.NodeConfig, *Env) (sim.Node, error) {
	return &silentNode{}, nil
}

type silentNode struct{}

func (*silentNode) Step(*sim.Context, []sim.Envelope) error { return nil }

func (*silentNode) Decide() (ident.Value, bool) { return 0, false }

// ---------------------------------------------------------------------------
// SplitBrain: the corrupted transmitter (and optionally co-conspirators)
// runs two correct inner nodes, one initialized with value 0 and one with
// value 1, and routes their traffic so processors below the split point see
// the 0-execution and the rest see the 1-execution. This is the classical
// equivocation that Theorem 1's proof formalizes.

// SplitBrain corrupts the transmitter only.
type SplitBrain struct {
	transmitterOnly
	// LowValue/HighValue are the two personalities' initial values.
	LowValue, HighValue ident.Value
	// SplitAt: processors with id < SplitAt see the LowValue personality.
	SplitAt ident.ProcID
}

var _ Adversary = SplitBrain{}

// Name implements Adversary.
func (s SplitBrain) Name() string { return "split-brain" }

// NewNode implements Adversary: multi-faced's node with two faces, the
// LowValue one shown to [0, SplitAt) and the HighValue one to [SplitAt, n).
func (s SplitBrain) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	return newFaces(cfg, env, []ident.Value{s.LowValue, s.HighValue}, []ident.ProcID{0, s.SplitAt})
}

// ---------------------------------------------------------------------------
// MultiFaced: the k-way generalization of SplitBrain for multi-valued
// domains — the corrupted transmitter maintains one correct personality per
// value and shows each personality to its own slice of the audience.

// MultiFaced corrupts the transmitter and equivocates between len(Values)
// personalities.
type MultiFaced struct {
	transmitterOnly
	// Values are the personalities' initial values; audience slice i (of
	// n/len(Values) processors, the last slice taking the remainder) sees
	// personality i.
	Values []ident.Value
}

var _ Adversary = MultiFaced{}

// Name implements Adversary.
func (m MultiFaced) Name() string { return fmt.Sprintf("multi-faced(%d)", len(m.Values)) }

// NewNode implements Adversary.
func (m MultiFaced) NewNode(cfg protocol.NodeConfig, env *Env) (sim.Node, error) {
	if len(m.Values) == 0 {
		return nil, fmt.Errorf("adversary: multi-faced needs at least one value")
	}
	slice := (cfg.N + len(m.Values) - 1) / len(m.Values)
	starts := make([]ident.ProcID, len(m.Values))
	for i := range starts {
		starts[i] = ident.ProcID(i * slice)
	}
	return newFaces(cfg, env, m.Values, starts)
}

// newFaces builds the equivocating node: face i runs a correct inner node
// with input values[i] and is shown to the processors from starts[i] up to
// the next face's start, the last face's up to n.
func newFaces(cfg protocol.NodeConfig, env *Env, values []ident.Value, starts []ident.ProcID) (sim.Node, error) {
	node := &multiFacedNode{faces: make([]face, len(values))}
	for i, v := range values {
		pcfg := cfg
		pcfg.Value = v
		inner, err := env.Run.NewNode(pcfg)
		if err != nil {
			return nil, err
		}
		lo, hi := starts[i], ident.ProcID(cfg.N)
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		node.faces[i] = face{node: inner, audience: func(to ident.ProcID) bool { return to >= lo && to < hi }}
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
			return fmt.Errorf("personality %d: %w", i, err)
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
	return LastNonTransmitter(n, min(1+t/2, t), transmitter)
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
	lastT
	// PerPhase is how many junk messages each corrupted node sends per
	// phase (default 3 when zero).
	PerPhase int
}

var _ Adversary = Garbage{}

// Name implements Adversary.
func (Garbage) Name() string { return "garbage" }

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
// histories; audit.ReplayAttack builds them.
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

// LastNonTransmitter is the t highest identities, skipping the transmitter:
// the set the lastT strategies corrupt, and the victims of the tools'
// omission faults.
func LastNonTransmitter(n, t int, transmitter ident.ProcID) ident.Set {
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

// lastT is the corruption choice of silent, garbage and bit-flipper.
type lastT struct{}

// Corrupt implements Adversary: the last t processors, never the transmitter.
func (lastT) Corrupt(n, t int, transmitter ident.ProcID, _ *mrand.Rand) ident.Set {
	return LastNonTransmitter(n, t, transmitter)
}

// transmitterOnly is the corruption choice of split-brain and multi-faced.
type transmitterOnly struct{}

// Corrupt implements Adversary: only the transmitter, and nobody at t = 0.
func (transmitterOnly) Corrupt(_, t int, transmitter ident.ProcID, _ *mrand.Rand) ident.Set {
	if t < 1 {
		return ident.Set{}
	}
	return ident.NewSet(transmitter)
}
