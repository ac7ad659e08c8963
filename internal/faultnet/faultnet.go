// Package faultnet compiles deterministic, seeded fault plans for the
// message substrates: per-link / per-phase drop, delay, duplicate and
// reorder actions, crash-at-phase-k processor halts, and network partitions.
//
// The paper's theorems bound what adversarial executions can force, so the
// repro needs to *inject* adversarial executions, not just simulate polite
// ones. A Plan is the injection schedule: a pure function from
// (phase, sender, receiver) to an Action, derived from a scenario Spec plus
// a single seed by stateless hashing — no RNG state is consumed per query,
// so every participant (each TCP peer, the in-memory engine, a test
// computing expectations) evaluates the identical schedule in any order,
// and two runs of the same seed replay byte-identically like everything
// else in this module. The schedule is applied to traffic in exactly one
// place, Deliver, which both substrates call per (sending phase, receiver).
//
// Fault semantics are chosen so that an in-budget plan stays inside the
// Byzantine fault model the protocols already tolerate: every action only
// mangles the traffic *sent by* a processor, so an affected sender is
// indistinguishable from a Byzantine one (drop = omission, duplicate =
// replay within the phase, delay = replay d phases later, reorder =
// permuted packing). Affected lists exactly those senders; a run that
// marks Affected ⊆ faulty with |faulty| ≤ t must therefore still reach
// agreement, and the scenario-matrix tests in package transport assert it
// for every algorithm.
package faultnet

import (
	"errors"
	"fmt"
	"math"

	"byzex/internal/ident"
)

// ErrOverBudget reports a plan whose affected-sender set exceeds the fault
// bound t — agreement is no longer guaranteed, and a run refuses typed
// rather than risk a divergent decision: core.Runner.Setup counts the
// affected set as faulty, so it is refused before the first phase
// (sim.ErrTooManyFaulty on both substrates); under an explicit faulty set
// that misses a victim, with sim.ErrCrashNotFaulty, or over TCP with
// transport.ErrStalled once a receiver's information gap exceeds t.
var ErrOverBudget = errors.New("faultnet: fault plan exceeds the fault budget")

// ErrBadSpec reports an invalid scenario description (parse or validation).
var ErrBadSpec = errors.New("faultnet: bad fault spec")

// Kind classifies a scenario rule.
type Kind uint8

// Rule kinds.
const (
	// KDrop discards the matched frame (the receiver still observes the
	// synchronizer arrival, so lock-step progress is unaffected — only the
	// content vanishes, like a Byzantine sender omitting its messages).
	KDrop Kind = iota + 1
	// KDelay holds the matched frame's content for Delay phases: messages
	// sent in phase p reach the receiver's inbox at step p+1+Delay.
	KDelay
	// KDup delivers the matched frame's messages twice.
	KDup
	// KReorder reverses the message order within the matched frame.
	KReorder
	// KCrash halts processor Proc at the start of phase AtPhase: it stops
	// sending, stepping and (over TCP) participating entirely.
	KCrash
	// KPartition drops every frame crossing between GroupA and GroupB
	// during the phase window, in both directions.
	KPartition
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KDrop:
		return "drop"
	case KDelay:
		return "delay"
	case KDup:
		return "dup"
	case KReorder:
		return "reorder"
	case KCrash:
		return "crash"
	case KPartition:
		return "partition"
	}
	return "unknown"
}

// maxPhase is the open upper bound of a wildcard phase window.
const maxPhase = int(^uint(0) >> 1)

// Rule is one scenario directive. Directed rules (drop/delay/dup/reorder)
// select a link: From/To are concrete processors or ident.None meaning
// "any". Crash rules use Proc/AtPhase; partition rules use GroupA/GroupB.
// First/Last bound the sending phases the rule covers (inclusive).
type Rule struct {
	Kind Kind

	// From and To select the link of a directed rule (ident.None = any).
	From, To ident.ProcID
	// First and Last are the inclusive sending-phase window.
	First, Last int
	// Prob is the per-frame firing probability in (0, 1]; 1 fires always.
	// Sub-unit probabilities are resolved by hashing (seed, rule, phase,
	// from, to), never by consuming RNG state.
	Prob float64
	// Delay is the phase count a KDelay rule holds a frame for.
	Delay int

	// Proc and AtPhase parameterize a KCrash rule.
	Proc    ident.ProcID
	AtPhase int

	// GroupA and GroupB are the two sides of a KPartition rule.
	GroupA, GroupB ident.Set
}

// matchesLink reports whether a directed or partition rule covers the frame
// (phase, from, to).
func (r *Rule) matchesLink(phase int, from, to ident.ProcID) bool {
	if phase < r.First || phase > r.Last {
		return false
	}
	if r.Kind == KPartition {
		return (r.GroupA.Has(from) && r.GroupB.Has(to)) ||
			(r.GroupB.Has(from) && r.GroupA.Has(to))
	}
	if r.From != ident.None && r.From != from {
		return false
	}
	if r.To != ident.None && r.To != to {
		return false
	}
	return true
}

// Spec is a symbolic fault scenario: an ordered rule list (the first
// matching rule wins per frame). Build one directly or via ParseSpec.
type Spec struct {
	Rules []Rule
}

// ActionKind classifies the resolved per-frame action.
type ActionKind uint8

// Resolved actions.
const (
	ActNone ActionKind = iota
	ActDrop
	ActDelay
	ActDup
	ActReorder
)

// Action is the plan's verdict for one frame.
type Action struct {
	Kind ActionKind
	// Delay is the hold duration in phases (ActDelay only).
	Delay int
}

// Counters tallies the fault events a plan produces over a run — the same
// quantities the fault-* trace kinds count, so tests can assert that traces
// match the plan exactly.
type Counters struct {
	Drops, Delays, Dups, Reorders, Crashes int
}

// Plan is a compiled, seeded fault schedule. All methods are safe on a nil
// receiver (a nil *Plan injects nothing), so substrates hold one pointer
// and skip every nil check on the hot path.
type Plan struct {
	seed  int64
	rules []Rule               // directed + partition rules, in spec order
	crash map[ident.ProcID]int // processor -> crash phase
}

// Compile validates spec and binds it to seed.
func Compile(spec Spec, seed int64) (*Plan, error) {
	p := &Plan{seed: seed, crash: make(map[ident.ProcID]int)}
	for i, r := range spec.Rules {
		switch r.Kind {
		case KCrash:
			if r.Proc < 0 {
				return nil, fmt.Errorf("%w: rule %d: crash processor %v", ErrBadSpec, i, r.Proc)
			}
			if r.AtPhase < 1 {
				return nil, fmt.Errorf("%w: rule %d: crash phase %d < 1", ErrBadSpec, i, r.AtPhase)
			}
			if prev, ok := p.crash[r.Proc]; ok && prev != r.AtPhase {
				return nil, fmt.Errorf("%w: rule %d: %v crashes twice (phase %d and %d)", ErrBadSpec, i, r.Proc, prev, r.AtPhase)
			}
			p.crash[r.Proc] = r.AtPhase
			continue
		case KDrop, KDelay, KDup, KReorder:
			if r.From != ident.None && r.From < 0 || r.To != ident.None && r.To < 0 {
				return nil, fmt.Errorf("%w: rule %d: bad link %v->%v", ErrBadSpec, i, r.From, r.To)
			}
			if r.From != ident.None && r.From == r.To {
				return nil, fmt.Errorf("%w: rule %d: self link %v->%v", ErrBadSpec, i, r.From, r.To)
			}
			if r.Kind == KDelay && r.Delay < 1 {
				return nil, fmt.Errorf("%w: rule %d: delay %d < 1", ErrBadSpec, i, r.Delay)
			}
		case KPartition:
			if r.GroupA.Len() == 0 || r.GroupB.Len() == 0 {
				return nil, fmt.Errorf("%w: rule %d: empty partition group", ErrBadSpec, i)
			}
			if r.GroupA.Intersect(r.GroupB).Len() > 0 {
				return nil, fmt.Errorf("%w: rule %d: partition groups overlap", ErrBadSpec, i)
			}
		default:
			return nil, fmt.Errorf("%w: rule %d: unknown kind %d", ErrBadSpec, i, r.Kind)
		}
		if r.First < 1 || r.Last < r.First {
			return nil, fmt.Errorf("%w: rule %d: phase window [%d,%d]", ErrBadSpec, i, r.First, r.Last)
		}
		if r.Prob <= 0 || r.Prob > 1 {
			return nil, fmt.Errorf("%w: rule %d: probability %g outside (0,1]", ErrBadSpec, i, r.Prob)
		}
		rr := r
		rr.GroupA = r.GroupA.Clone()
		rr.GroupB = r.GroupB.Clone()
		p.rules = append(p.rules, rr)
	}
	return p, nil
}

// MustCompile is Compile for tests and examples with known-good specs.
func MustCompile(spec Spec, seed int64) *Plan {
	p, err := Compile(spec, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.rules) == 0 && len(p.crash) == 0)
}

// Digest returns a stable 64-bit fingerprint of the compiled plan: the seed
// plus every rule field in spec order (FNV-64a). Two plans with equal digests
// inject the identical schedule, so a journaled digest is enough to verify at
// recovery that a replayed admission re-executes under the same faults it was
// admitted with. A nil plan (no injection) digests to 0.
func (p *Plan) Digest() uint64 {
	if p == nil {
		return 0
	}
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(p.seed))
	mix(uint64(len(p.rules)))
	for i := range p.rules {
		r := &p.rules[i]
		mix(uint64(r.Kind))
		mix(uint64(r.From))
		mix(uint64(r.To))
		mix(uint64(r.First))
		mix(uint64(r.Last))
		mix(math.Float64bits(r.Prob))
		mix(uint64(r.Delay))
		mix(uint64(r.Proc))
		mix(uint64(r.AtPhase))
		for _, id := range r.GroupA.Sorted() {
			mix(uint64(id) + 1)
		}
		mix(0) // group separator
		for _, id := range r.GroupB.Sorted() {
			mix(uint64(id) + 1)
		}
	}
	// Crash rules land in p.crash, not p.rules; fold them in sorted order so
	// map iteration never perturbs the digest.
	var crashed ident.Set
	for id := range p.crash {
		crashed.Add(id)
	}
	for _, id := range crashed.Sorted() {
		mix(uint64(id))
		mix(uint64(p.crash[id]))
	}
	return h
}

// FrameAction resolves the plan's verdict for the frame sent by from to to
// during phase. Rules are consulted in spec order; the first rule that
// matches the link, covers the phase and passes its probability coin wins.
// Frames from a crashed sender never exist, so callers consult Crashed
// first; FrameAction does not re-check it. Substrates never call this
// directly: Deliver resolves and applies the verdict for them.
func (p *Plan) FrameAction(phase int, from, to ident.ProcID) Action {
	if p == nil {
		return Action{}
	}
	for i := range p.rules {
		r := &p.rules[i]
		if !r.matchesLink(phase, from, to) {
			continue
		}
		if !p.coin(i, phase, from, to, r.Prob) {
			continue
		}
		switch r.Kind {
		case KDrop, KPartition:
			return Action{Kind: ActDrop}
		case KDelay:
			return Action{Kind: ActDelay, Delay: r.Delay}
		case KDup:
			return Action{Kind: ActDup}
		case KReorder:
			return Action{Kind: ActReorder}
		}
	}
	return Action{}
}

// names reports whether the window of any directed or partition rule covers
// sending phase phase. Where none does, FrameAction is ActNone on every link
// of the phase, which is what lets Deliver pass such a phase through whole.
func (p *Plan) names(phase int) bool {
	if p == nil {
		return false
	}
	for i := range p.rules {
		if phase >= p.rules[i].First && phase <= p.rules[i].Last {
			return true
		}
	}
	return false
}

// CrashPhase returns the phase at whose start id halts, or 0 if it never
// crashes.
func (p *Plan) CrashPhase(id ident.ProcID) int {
	if p == nil {
		return 0
	}
	return p.crash[id]
}

// Crashed reports whether id has halted by phase (crash phase ≤ phase).
func (p *Plan) Crashed(id ident.ProcID, phase int) bool {
	if p == nil {
		return false
	}
	cp, ok := p.crash[id]
	return ok && cp <= phase
}

// CrashSilent counts the senders (≠ to, among n processors) whose frames
// for phase will never exist because they crashed. The TCP synchronizer
// subtracts this from its per-phase arrival quota so crash scenarios never
// wait out the phase timeout.
func (p *Plan) CrashSilent(phase int, to ident.ProcID, n int) int {
	if p == nil || len(p.crash) == 0 {
		return 0
	}
	count := 0
	for id, cp := range p.crash {
		if id != to && int(id) < n && cp <= phase {
			count++
		}
	}
	return count
}

// Affected returns the processors whose *sent* traffic the plan can touch:
// crashed processors, the From side of every directed rule (all processors
// for a wildcard From), and the smaller side of every partition. A run
// whose faulty set covers Affected with |faulty| ≤ t must still reach
// agreement — every injected fault is then attributable to a processor the
// protocols already tolerate misbehaving.
func (p *Plan) Affected(n int) ident.Set {
	var out ident.Set
	if p == nil {
		return out
	}
	for id := range p.crash {
		if int(id) < n {
			out.Add(id)
		}
	}
	for i := range p.rules {
		r := &p.rules[i]
		switch r.Kind {
		case KPartition:
			small := r.GroupA
			if r.GroupB.Len() < r.GroupA.Len() {
				small = r.GroupB
			}
			small.Each(func(id ident.ProcID) {
				if int(id) < n {
					out.Add(id)
				}
			})
		default:
			if r.From == ident.None {
				for _, id := range ident.Range(n) {
					out.Add(id)
				}
			} else if int(r.From) < n {
				out.Add(r.From)
			}
		}
	}
	return out
}

// CheckBudget returns ErrOverBudget when the plan affects more than t of
// the n processors.
func (p *Plan) CheckBudget(n, t int) error {
	affected := p.Affected(n)
	if affected.Len() > t {
		return fmt.Errorf("%w: %d affected processors %v > t=%d", ErrOverBudget, affected.Len(), affected.Sorted(), t)
	}
	return nil
}

// ExpectedCounters tallies the fault events a run of n processors over
// `phases` sending phases emits under this plan — the ground truth the
// scenario tests compare trace summaries against. It is deliberately an
// independent count, not a call into Deliver: one event per matched frame
// per link per sending phase, evaluated only while sender (at the sending
// phase) and receiver (at the delivery phase) are still alive, plus one
// crash event per processor halting within the run's phases+1 steps.
func (p *Plan) ExpectedCounters(n, phases int) Counters {
	var c Counters
	if p.Empty() {
		return c
	}
	for id, cp := range p.crash {
		if int(id) < n && cp >= 1 && cp <= phases+1 {
			c.Crashes++
		}
	}
	for ph := 1; ph <= phases; ph++ {
		for s := 0; s < n; s++ {
			from := ident.ProcID(s)
			if p.Crashed(from, ph) {
				continue
			}
			for r := 0; r < n; r++ {
				to := ident.ProcID(r)
				if to == from || p.Crashed(to, ph+1) {
					continue
				}
				switch p.FrameAction(ph, from, to).Kind {
				case ActDrop:
					c.Drops++
				case ActDelay:
					c.Delays++
				case ActDup:
					c.Dups++
				case ActReorder:
					c.Reorders++
				}
			}
		}
	}
	return c
}

// coin is the deterministic probability gate: a stateless hash of
// (seed, rule index, phase, from, to) compared against prob. No RNG state
// means every participant resolves the same verdict regardless of query
// order, which is what keeps fault runs replayable.
func (p *Plan) coin(rule, phase int, from, to ident.ProcID, prob float64) bool {
	if prob >= 1 {
		return true
	}
	x := uint64(p.seed)
	for _, v := range [...]uint64{uint64(rule) + 1, uint64(phase), uint64(int64(from)) + 2, uint64(int64(to)) + 2} {
		x = SplitMix64(x ^ (v * 0x9e3779b97f4a7c15))
	}
	return float64(x>>11)/float64(1<<53) < prob
}

// SplitMix64 is the SplitMix64 finalizer — a cheap, well-mixed 64-bit hash.
// The adversary package seeds each faulty processor's stream with it too.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
