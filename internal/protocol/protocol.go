// Package protocol defines the interface every Byzantine Agreement
// algorithm in this module implements, plus small helpers shared by the
// protocol implementations (signature-aware send, broadcast).
//
// A Protocol is a factory for runs: NewRun returns the Builder of one (n, t)
// run, and the Builder builds that run's per-processor state machines
// (sim.Node). What the processors of a run share — a layout, a schedule — the
// builder computes once, and it carves each kind of per-processor state from
// one block sized to the run (sig.Blocks), so building n nodes costs a few
// allocations per kind, not n. The blocks belong to the run: only its nodes
// point into them, so they live exactly as long as the run's nodes do. The
// same builders drive the in-memory engine, the TCP transport, the adversary
// wrappers (a corrupted processor's correct inner nodes come from its run's
// builder), and the history/replay machinery.
package protocol

import (
	"errors"
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// ErrBadParams indicates n/t (or protocol-specific parameters) are outside
// the protocol's domain.
var ErrBadParams = errors.New("protocol: invalid parameters")

// NodeConfig carries everything a processor needs at construction time:
// its identity, the system parameters, its private signer, and the public
// verifier. Value is the initial value and is meaningful only for the
// transmitter (phase 0 of the paper's model: the single inedge labeled v).
type NodeConfig struct {
	ID          ident.ProcID
	N           int
	T           int
	Transmitter ident.ProcID
	Value       ident.Value
	Signer      sig.Signer
	Verifier    sig.Verifier
}

// Validate checks structural consistency of the configuration.
func (c NodeConfig) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("%w: n=%d", ErrBadParams, c.N)
	case c.T < 0:
		return fmt.Errorf("%w: t=%d", ErrBadParams, c.T)
	case int(c.ID) < 0 || int(c.ID) >= c.N:
		return fmt.Errorf("%w: id %v out of range", ErrBadParams, c.ID)
	case int(c.Transmitter) < 0 || int(c.Transmitter) >= c.N:
		return fmt.Errorf("%w: transmitter %v out of range", ErrBadParams, c.Transmitter)
	case c.Signer == nil:
		return fmt.Errorf("%w: nil signer", ErrBadParams)
	case c.Verifier == nil:
		return fmt.Errorf("%w: nil verifier", ErrBadParams)
	case c.Signer.ID() != c.ID:
		return fmt.Errorf("%w: signer for %v given to %v", ErrBadParams, c.Signer.ID(), c.ID)
	}
	return nil
}

// ValidateRun is Validate for the builder of an (n, t) run: the
// configuration must also be one of that run's.
func (c NodeConfig) ValidateRun(n, t int) error {
	if c.N != n || c.T != t {
		return fmt.Errorf("%w: n=%d t=%d node given to an n=%d t=%d run", ErrBadParams, c.N, c.T, n, t)
	}
	return c.Validate()
}

// IsTransmitter reports whether this configuration belongs to the
// transmitter.
func (c NodeConfig) IsTransmitter() bool { return c.ID == c.Transmitter }

// RequireBinaryValue rejects transmitter inputs outside {0, 1}. The paper's
// Algorithms 1-5 are stated for the binary domain ("the values the
// transmitter may send are 0 or 1"); protocols built on correct 1-messages
// must refuse other inputs instead of silently misdeciding. alg1.MultiProtocol
// does not call it: it runs Algorithm 1's state machine under the
// multi-valued rule, where a correct message of any value counts. Nor do
// dolevstrong, lsp, phaseking and ic, which accept any value.
func (c NodeConfig) RequireBinaryValue() error {
	if c.IsTransmitter() && c.Value != 0 && c.Value != 1 {
		return fmt.Errorf("%w: binary protocol cannot carry value %v (use the multi-valued variants)", ErrBadParams, c.Value)
	}
	return nil
}

// Protocol is a Byzantine Agreement algorithm: a factory for runs plus its
// phase schedule.
type Protocol interface {
	// Name identifies the protocol in reports ("alg1", "dolev-strong", ...).
	Name() string
	// Check validates that the protocol supports the given n and t.
	Check(n, t int) error
	// Phases returns the last phase during which the protocol sends
	// messages, for the given parameters.
	Phases(n, t int) int
	// NewRun returns the builder of one run's state machines for n and t,
	// or Check's error.
	NewRun(n, t int) (Builder, error)
}

// Builder builds the state machines of one run. Every node of a run — the
// correct processors' and the inner nodes of the corrupted ones — comes from
// the run's one builder, which is used by one goroutine.
type Builder interface {
	// NewNode builds the state machine for one processor; cfg's N and T are
	// the run's.
	NewNode(cfg NodeConfig) (sim.Node, error)
}

// Uniform returns the builder of an (n, t) run of p whose nodes are all of
// one kind: each is carved from one block of n, and init fills it in from
// its configuration. It refuses what p.Check does.
func Uniform[T any, P interface {
	*T
	sim.Node
}](p Protocol, n, t int, init func(P, NodeConfig) error) (Builder, error) {
	if err := p.Check(n, t); err != nil {
		return nil, err
	}
	return &uniform[T, P]{n: n, t: t, nodes: sig.NewBlocks[T](n, Overflow), init: init}, nil
}

type uniform[T any, P interface {
	*T
	sim.Node
}] struct {
	n, t  int
	nodes sig.Blocks[T]
	init  func(P, NodeConfig) error
}

func (u *uniform[T, P]) NewNode(cfg NodeConfig) (sim.Node, error) {
	if err := cfg.ValidateRun(u.n, u.t); err != nil {
		return nil, err
	}
	nd := P(&u.nodes.Carve(1)[0])
	if err := u.init(nd, cfg); err != nil {
		return nil, err
	}
	return nd, nil
}

// Overflow is the cap of a run's blocks (sig.NewBlocks) after the first,
// which holds exactly what the run was sized for: a run that carves more —
// an adversary running two personalities of one processor — carves the rest
// from blocks this small.
const Overflow = 8

// Group is an ordered list of distinct processors and its inverse: the whole
// system when a protocol runs standalone, a subgroup when one algorithm runs
// inside another. A contiguous ascending run of identities — ident.Range, or
// Algorithm 5's actives — is indexed by arithmetic; only an irregular group
// pays for a map.
type Group struct {
	members []ident.ProcID
	index   map[ident.ProcID]int // nil when members[i] == members[0]+i
}

// NewGroup indexes members, which it keeps: the caller must not write to the
// slice afterwards. It fails when a processor is listed twice.
func NewGroup(members []ident.ProcID) (Group, error) {
	g := Group{members: members}
	for i, id := range members {
		if g.index == nil && id == members[0]+ident.ProcID(i) {
			continue
		}
		if g.index == nil {
			g.index = make(map[ident.ProcID]int, len(members))
			for j, prev := range members[:i] {
				g.index[prev] = j
			}
		}
		if _, dup := g.index[id]; dup {
			return Group{}, fmt.Errorf("%w: duplicate group member %v", ErrBadParams, id)
		}
		g.index[id] = i
	}
	return g, nil
}

// Members returns the group in order. Callers must not write to it.
func (g Group) Members() []ident.ProcID { return g.members }

// Len returns the number of members.
func (g Group) Len() int { return len(g.members) }

// Index returns id's position in the group; ok is false for an outsider.
func (g Group) Index(id ident.ProcID) (i int, ok bool) {
	if g.index != nil {
		i, ok = g.index[id]
		return i, ok
	}
	if len(g.members) == 0 {
		return 0, false
	}
	i = int(id) - int(g.members[0])
	return i, 0 <= i && i < len(g.members)
}

// IndexOf is Index for a processor that has to be a member — the one whose
// state machine is being built: an outsider is an ErrBadParams.
func (g Group) IndexOf(me ident.ProcID) (int, error) {
	i, ok := g.Index(me)
	if !ok {
		return 0, fmt.Errorf("%w: %v not in group", ErrBadParams, me)
	}
	return i, nil
}

// Send transmits payload to a single recipient, deriving the envelope's
// signature accounting from the chains embedded in the payload. Protocols
// must pass every chain the payload carries so Theorem 1 accounting and the
// A(p) sets remain exact.
func Send(ctx *sim.Context, to ident.ProcID, payload []byte, chains ...sig.Chain) error {
	signers, total := Summarize(ctx, chains)
	return ctx.Send(to, payload, signers, total)
}

// Broadcast sends payload to every processor except the sender.
func Broadcast(ctx *sim.Context, payload []byte, chains ...sig.Chain) error {
	signers, total := Summarize(ctx, chains)
	for id := 0; id < ctx.N(); id++ {
		pid := ident.ProcID(id)
		if pid == ctx.ID() {
			continue
		}
		if err := ctx.Send(pid, payload, signers, total); err != nil {
			return err
		}
	}
	return nil
}

// SendToAll sends payload to each listed recipient (skipping the sender if
// present).
func SendToAll(ctx *sim.Context, to []ident.ProcID, payload []byte, chains ...sig.Chain) error {
	signers, total := Summarize(ctx, chains)
	for _, pid := range to {
		if pid == ctx.ID() {
			continue
		}
		if err := ctx.Send(pid, payload, signers, total); err != nil {
			return err
		}
	}
	return nil
}

// Summarize returns the distinct signers of the chains in ascending order
// and the total number of links: an envelope's signature accounting, for a
// caller that sends one payload through Context.Send itself. The list is collected in the scratch of
// ctx's slab and carved from it, so it is no allocation of its own.
func Summarize(ctx *sim.Context, chains []sig.Chain) ([]ident.ProcID, int) {
	total := 0
	for _, c := range chains {
		total += len(c)
	}
	slab := ctx.Slab()
	signers := slab.SignerScratch(total)
	for _, c := range chains {
		for _, l := range c {
			signers = append(signers, l.Signer)
		}
	}
	return slab.InternSigners(signers), total
}
