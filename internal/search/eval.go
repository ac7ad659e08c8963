package search

import (
	"context"
	"errors"
	"fmt"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// Objective selects the quantity the search minimizes — the two costs the
// paper lower-bounds.
type Objective uint8

// The searchable objectives.
const (
	// ObjSignatures minimizes signatures sent by correct processors
	// (Theorem 1, core.SigLowerBound).
	ObjSignatures Objective = iota
	// ObjMessages minimizes messages sent by correct processors
	// (Theorem 2, core.MsgLowerBound).
	ObjMessages
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	if o == ObjSignatures {
		return "sigs"
	}
	return "msgs"
}

// ParseObjective resolves the -objective flag values.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "sigs", "signatures":
		return ObjSignatures, nil
	case "msgs", "messages":
		return ObjMessages, nil
	default:
		return 0, fmt.Errorf("search: unknown objective %q (known: sigs, msgs)", s)
	}
}

// Eval is the outcome of evaluating one candidate: the H-side run (value 0)
// and the G-side run (value 1) under the same adversary, plan and seed.
//
// Feasibility is the search's guard against trivial minima: a candidate
// only scores when both runs reach agreement on their intended value, i.e.
// when the pair of executions actually realizes the two fault-free-looking
// histories H and G the Theorem 1 proof reasons over. An adversary that
// silences or corrupts the transmitter makes the pair infeasible (one run
// cannot decide its intended value) and scores nothing — which is exactly
// why minimizing over feasible candidates can never undercut the bound on
// a correct protocol.
type Eval struct {
	// Cand is the evaluated candidate.
	Cand Candidate
	// Skipped marks candidates that were never run, with SkipReason one of
	// "over-budget" (core.Runner.Setup refused the faulty set — the
	// strategy's Corrupt choice united with the plan's affected processors —
	// as beyond t) or "bad-spec" (plan failed to compile).
	Skipped    bool
	SkipReason string
	// Feasible marks candidates whose cost counts (see above). CostH and
	// CostG are the per-run objective costs; Cost is their maximum — the
	// worse side of the (H, G) pair, matching how the theorems bound the
	// costlier history.
	Feasible     bool
	Cost         int
	CostH, CostG int
	// Violation is non-nil when either run broke the class's agreement
	// promise. A violating candidate is never feasible.
	Violation error
}

// evaluator runs candidates for one search target. It is safe for
// concurrent use: evaluation touches no shared mutable state.
type evaluator struct {
	cfg         *Config
	transmitter ident.ProcID
}

// evaluate runs the candidate's (value 0, value 1) pair and judges both
// runs. Only infrastructure failures return an error; everything a
// candidate can legitimately cause is folded into the Eval.
func (ev *evaluator) evaluate(ctx context.Context, cand Candidate) (Eval, error) {
	cfg := ev.cfg
	out := Eval{Cand: cand}

	adv := cand.adversaryFor(cfg.N, cfg.T, ev.transmitter)
	var plan *faultnet.Plan
	if len(cand.Spec.Rules) > 0 {
		var err error
		plan, err = faultnet.Compile(cand.Spec, cand.Seed)
		if err != nil {
			out.Skipped, out.SkipReason = true, "bad-spec"
			return out, nil
		}
	}

	feasible := true
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		res, err := core.Run(ctx, core.Config{
			Protocol:    cfg.Protocol,
			N:           cfg.N,
			T:           cfg.T,
			Transmitter: ev.transmitter,
			Value:       v,
			Scheme:      cfg.Scheme,
			Adversary:   adv,
			Seed:        cand.Seed,
			Rushing:     cand.Rushing,
			Faults:      plan,
			Trace:       trace.Nop{},
		})
		if errors.Is(err, sim.ErrTooManyFaulty) {
			out.Skipped, out.SkipReason = true, "over-budget"
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("search: candidate %s value %v: %w", cand.Key(), v, err)
		}
		_, verr := res.Decision(ev.transmitter, v)
		if verr = cfg.Class.Verdict(verr); verr != nil {
			if out.Violation == nil {
				out.Violation = verr
			}
			feasible = false
		}
		cost := res.Sim.Report.MessagesCorrect
		if cfg.Objective == ObjSignatures {
			cost = res.Sim.Report.SignaturesCorrect
		}
		if v == ident.V0 {
			out.CostH = cost
		} else {
			out.CostG = cost
		}
		// Feasibility additionally demands the run decided its intended
		// value, so the pair really is an (H, G) pair. For agreement-class
		// protocols condition (ii) delivers that exactly when the
		// transmitter is correct; exchange protocols decide a constant, so
		// the value requirement is waived.
		if cfg.Class != cli.ClassExchange && res.Faulty.Has(ev.transmitter) {
			feasible = false
		}
	}
	out.Feasible = feasible && out.Violation == nil
	out.Cost = out.CostH
	if out.CostG > out.Cost {
		out.Cost = out.CostG
	}
	return out, nil
}
