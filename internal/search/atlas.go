package search

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/runner"
	"byzex/internal/trace"
)

// ErrGate is the loud failure of the gap-to-bound gate: an agreement-class
// protocol was broken or undercut the theorem bound, or a strawman survived
// the search unbroken.
var ErrGate = errors.New("search: gap gate violated")

// Target is one atlas row's subject: a registry entry — by default at its
// canonical conformance size, scheme and class; baattack overrides N and T
// for a single-protocol search — plus the alg3/alg5 threshold knob.
type Target struct {
	cli.Entry
	// S is the alg3/alg5 threshold (0 = default to T, as everywhere in the
	// cli).
	S int
}

// Authenticated reports whether the target's runs carry real signatures.
// Plain targets are unauthenticated: the signatures objective is skipped
// for them (their Theorem 1 analogue is Corollary 1, which is about
// messages).
func (t Target) Authenticated() bool { return t.Scheme != "plain" }

// AtlasConfig parameterizes a registry-wide search sweep.
type AtlasConfig struct {
	// Objectives defaults to both (signatures then messages).
	Objectives []Objective
	// Budget is the evaluation budget per row; Seed fixes the whole table
	// byte-identically. Pool and Trace are shared across rows (rows run
	// serially; parallelism lives inside each search).
	Budget int
	Seed   int64
	Pool   *runner.Pool
	Trace  trace.Sink
}

// Row is one atlas entry: the best cost the search could force for one
// (protocol, objective) pair, against the theorem bound.
type Row struct {
	Target    Target
	Objective Objective
	// Bound is the applicable lower bound: core.SigLowerBound for the
	// signatures objective, core.MsgLowerBound for messages; 0 for the
	// exchange class, where the agreement bounds do not apply.
	Bound int
	// Baseline is the fault-free cost; Best is the cheapest feasible cost
	// found (-1 when nothing feasible scored). BestCand reproduces it.
	Baseline int
	Best     int
	BestCand Candidate
	// Evals / Skipped account for the spent budget; Violations counts
	// agreement breaks, with ViolationSample holding the first one's
	// provenance and error.
	Evals           int
	Skipped         int
	Violations      int
	ViolationSample string
}

// GapRatio is Best/Bound — how far above the theorem bound the cheapest
// found execution pair sits. 0 when the bound does not apply or nothing
// feasible was found.
func (r Row) GapRatio() float64 {
	if r.Bound <= 0 || r.Best < 0 {
		return 0
	}
	return float64(r.Best) / float64(r.Bound)
}

// RunAtlas sweeps every cli.Registry row at its canonical size — see
// RunTargets.
func RunAtlas(ctx context.Context, cfg AtlasConfig) ([]Row, error) {
	targets := make([]Target, len(cli.Registry()))
	for i, e := range cli.Registry() {
		targets[i] = Target{Entry: e}
	}
	return RunTargets(ctx, targets, cfg)
}

// RunTargets searches every (target, objective) pair and returns one row
// each, skipping the signatures objective for unauthenticated targets. Rows
// are deterministic in cfg.Seed: targets run serially in the given order,
// each row's search seeded from (Seed, row index).
func RunTargets(ctx context.Context, targets []Target, cfg AtlasConfig) ([]Row, error) {
	objectives := cfg.Objectives
	if len(objectives) == 0 {
		objectives = []Objective{ObjSignatures, ObjMessages}
	}
	pool := cfg.Pool
	if pool == nil {
		pool = runner.New(0)
	}
	var rows []Row
	rowIdx := 0
	for _, tgt := range targets {
		for _, obj := range objectives {
			rowIdx++
			if obj == ObjSignatures && !tgt.Authenticated() {
				continue
			}
			params := cli.Params{N: tgt.N, T: tgt.T, S: tgt.S, Seed: cfg.Seed}
			proto, err := cli.Protocol(tgt.Name, params)
			if err != nil {
				return nil, err
			}
			scheme, err := cli.Scheme(tgt.Scheme, params)
			if err != nil {
				return nil, err
			}
			res, err := Run(ctx, Config{
				Protocol:  proto,
				N:         tgt.N,
				T:         tgt.T,
				Scheme:    scheme,
				Class:     tgt.Class,
				Objective: obj,
				Budget:    cfg.Budget,
				Seed:      cfg.Seed + int64(rowIdx)*7919,
				Pool:      pool,
				Trace:     cfg.Trace,
			})
			if err != nil {
				return nil, fmt.Errorf("search: atlas %s/%s: %w", tgt.Name, obj, err)
			}
			rows = append(rows, buildRow(tgt, obj, res))
		}
	}
	return rows, nil
}

func buildRow(tgt Target, obj Objective, res *Result) Row {
	row := Row{
		Target:    tgt,
		Objective: obj,
		Baseline:  res.Baseline.Cost,
		Best:      -1,
		Evals:     res.Evals,
		Skipped:   res.Skipped,
	}
	if tgt.Class != cli.ClassExchange {
		if obj == ObjSignatures {
			row.Bound = core.SigLowerBound(tgt.N, tgt.T)
		} else {
			row.Bound = core.MsgLowerBound(tgt.N, tgt.T)
		}
	}
	if res.Best != nil {
		row.Best = res.Best.Cost
		row.BestCand = res.Best.Cand
	}
	row.Violations = res.Violations
	if len(res.ViolationSamples) > 0 {
		v := res.ViolationSamples[0]
		row.ViolationSample = fmt.Sprintf("%s: %v", v.Cand.Provenance(), v.Violation)
	}
	return row
}

// CheckRows is the gap gate. For agreement-class rows any violation, any
// missing feasible candidate, or a best-found below the bound fails; for
// exchange-class rows a unanimity break fails; for strawman rows the search
// *failing to find* a violation fails. A nil error means every row behaved
// exactly as the theorems (and the strawmen's known defects) predict.
func CheckRows(rows []Row) error {
	for _, r := range rows {
		id := fmt.Sprintf("%s/%s", r.Target.Name, r.Objective)
		switch r.Target.Class {
		case cli.ClassAgreement:
			if r.Violations > 0 {
				return fmt.Errorf("%w: %s: %d agreement violations from in-budget candidates (first: %s)",
					ErrGate, id, r.Violations, r.ViolationSample)
			}
			if r.Best < 0 {
				return fmt.Errorf("%w: %s: no feasible candidate found (baseline should be feasible)", ErrGate, id)
			}
			if r.Best < r.Bound {
				return fmt.Errorf("%w: %s: best-found %d below bound %d (candidate: %s)",
					ErrGate, id, r.Best, r.Bound, r.BestCand.Provenance())
			}
		case cli.ClassExchange:
			if r.Violations > 0 {
				return fmt.Errorf("%w: %s: %d unanimity violations (first: %s)",
					ErrGate, id, r.Violations, r.ViolationSample)
			}
		case cli.ClassStrawman:
			if r.Violations == 0 {
				return fmt.Errorf("%w: %s: search found no violation in %d evals — the strawman's defect went undetected",
					ErrGate, id, r.Evals)
			}
		}
	}
	return nil
}

// RenderRows formats the atlas as an aligned text table.
func RenderRows(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-9s %5s %3s %3s %8s %8s %8s %6s %6s  %s\n",
		"protocol", "class", "obj", "n", "t", "baseline", "best", "bound", "gap", "viol", "best candidate")
	for _, r := range rows {
		bound, gap := "n/a", "n/a"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%d", r.Bound)
			gap = fmt.Sprintf("%.2f", r.GapRatio())
		}
		best := "-"
		if r.Best >= 0 {
			best = fmt.Sprintf("%d", r.Best)
		}
		detail := r.BestCand.Provenance()
		if r.Target.Class == cli.ClassStrawman && r.ViolationSample != "" {
			detail = "BROKEN " + r.ViolationSample
		}
		fmt.Fprintf(&b, "%-18s %-9s %5s %3d %3d %8d %8s %8s %6s %6d  %s\n",
			r.Target.Name, r.Target.Class, r.Objective, r.Target.N, r.Target.T,
			r.Baseline, best, bound, gap, r.Violations, detail)
	}
	return b.String()
}
