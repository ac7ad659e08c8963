package search

import (
	"fmt"
	mrand "math/rand"
	"strconv"
	"strings"

	"byzex/internal/adversary"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
)

// StrategyID names one point on the adversary-strategy axis of the search
// space. The set mirrors the registry in package adversary, minus Replay
// (whose schedules are bound to one specific recorded history, so it cannot
// be instantiated for an arbitrary searched faulty set) and MultiFaced
// (subsumed by SplitBrain on the binary domain the bounds are stated over).
type StrategyID uint8

// The searchable strategies.
const (
	// StratNone runs no adversary: faults come only from the candidate's
	// fault plan. With an empty plan this is the fault-free baseline.
	StratNone StrategyID = iota
	StratSilent
	StratCrash
	StratStarve
	StratGarbage
	StratChaos
	StratBitFlip
	StratSplitBrain
	numStrategies
)

var strategyNames = [numStrategies]string{
	"none", "silent", "crash", "starve", "garbage", "chaos", "bit-flipper", "split-brain",
}

// String implements fmt.Stringer.
func (s StrategyID) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "unknown"
}

// Candidate is one point of the strategy × seed × fault-plan space: an
// adversary strategy with its integer parameter, the rushing switch, the
// seed driving the run's randomness, and a fault-injection spec. A
// candidate fully determines both executions of its evaluation (see eval.go)
// — re-evaluating one is a pure function.
type Candidate struct {
	// Strategy selects the adversary; Param is its knob (crash phase,
	// ignore-first count, junk volume, split point — see adversaryFor).
	Strategy StrategyID
	Param    int
	// Rushing grants the adversary the rushing power.
	Rushing bool
	// Seed drives the runs' deterministic randomness and the fault plan's
	// probability coins.
	Seed int64
	// Spec is the fault-injection half of the candidate, mutated with
	// faultnet.MutateSpec.
	Spec faultnet.Spec
}

// Key is a canonical string form of the candidate, used for memoization and
// for the determinism contract (equal keys ⇔ equal evaluations).
func (c Candidate) Key() string {
	var b strings.Builder
	b.WriteString(c.Strategy.String())
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(c.Param))
	if c.Rushing {
		b.WriteString("/rush")
	}
	b.WriteString("/s")
	b.WriteString(strconv.FormatInt(c.Seed, 10))
	if len(c.Spec.Rules) > 0 {
		b.WriteByte('/')
		b.WriteString(faultnet.FormatSpec(c.Spec))
	}
	return b.String()
}

// Provenance renders the candidate for atlas rows and logs: everything
// needed to re-run it by hand with baattack.
func (c Candidate) Provenance() string {
	out := fmt.Sprintf("%s(param=%d) seed=%d", c.Strategy, c.Param, c.Seed)
	if c.Rushing {
		out += " rushing"
	}
	if len(c.Spec.Rules) > 0 {
		out += " faults=" + faultnet.FormatSpec(c.Spec)
	}
	return out
}

// adversaryFor materializes the candidate's adversary strategy for a system
// of n processors with fault bound t. StratNone returns nil (fault-plan
// faults only).
func (c Candidate) adversaryFor(n, t int, transmitter ident.ProcID) adversary.Adversary {
	switch c.Strategy {
	case StratSilent:
		return adversary.Silent{}
	case StratCrash:
		return adversary.Crash{CrashAfter: max(0, c.Param)}
	case StratStarve:
		return adversary.StarveB{B: adversary.StarveSet(n, t, transmitter), IgnoreFirst: max(0, c.Param)}
	case StratGarbage:
		return adversary.Garbage{PerPhase: 1 + abs(c.Param)%4}
	case StratChaos:
		return adversary.Chaos{}
	case StratBitFlip:
		return adversary.BitFlipper{}
	case StratSplitBrain:
		split := c.Param
		if split < 1 {
			split = 1
		}
		if split > n-1 {
			split = n - 1
		}
		return adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(split)}
	default:
		return nil
	}
}

// defaultParam is the canonical knob setting a strategy starts from: the
// values the paper's constructions use (crash after phase 1, ignore the
// first ⌈t/2⌉ messages, split the audience in half).
func defaultParam(s StrategyID, n, t int) int {
	switch s {
	case StratCrash:
		return 1
	case StratStarve:
		return (t + 1) / 2
	case StratGarbage:
		return 2
	case StratSplitBrain:
		return (n + 1) / 2
	default:
		return 0
	}
}

// paramRange bounds the strategy knob for mutation. hi is inclusive.
func paramRange(s StrategyID, n, t, phases int) (lo, hi int) {
	switch s {
	case StratCrash:
		return 0, phases
	case StratStarve:
		return 0, 2*t + 1
	case StratGarbage:
		return 0, 3
	case StratSplitBrain:
		return 1, n - 1
	default:
		return 0, 0
	}
}

// mutate draws one random neighbor of c. The move distribution favors the
// cheap refinements (reseed, knob tweak, plan edit) over the disruptive
// ones (strategy switch, plan reset); every move is valid by construction,
// though the result may be over the fault budget — evaluation skips those.
func (c Candidate) mutate(rng *mrand.Rand, n, t, phases int) Candidate {
	out := c
	switch rng.Intn(10) {
	case 0, 1: // reseed
		out.Seed = rng.Int63()
	case 2, 3: // tweak the strategy knob
		lo, hi := paramRange(out.Strategy, n, t, phases)
		if hi > lo {
			out.Param = lo + rng.Intn(hi-lo+1)
		} else {
			out.Seed = rng.Int63()
		}
	case 4, 5, 6: // edit the fault plan
		out.Spec = faultnet.MutateSpec(out.Spec, rng, n, phases)
	case 7: // switch strategy
		out.Strategy = StrategyID(rng.Intn(int(numStrategies)))
		out.Param = defaultParam(out.Strategy, n, t)
	case 8: // toggle rushing
		out.Rushing = !out.Rushing
	default: // drop the fault plan (recovers feasibility after bad edits)
		out.Spec = faultnet.Spec{}
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
