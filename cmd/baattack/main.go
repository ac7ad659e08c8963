// Command baattack demonstrates the paper's lower-bound constructions as
// executable attacks, and searches for the cheapest executions any
// in-budget adversary can force. Against the deliberately-cheap strawman
// protocols the attacks break agreement; against the paper's algorithms
// (and Dolev-Strong) they report "bound respected: attack not applicable".
//
// With -search the command runs the internal/search optimizer instead of a
// single scripted attack: it minimizes correct-sender signatures and/or
// messages over the strategy × seed × fault-plan space and reports the gap
// between the best-found cost and the Theorem 1/2 bounds
// (core.SigLowerBound / core.MsgLowerBound). `-protocol all` sweeps the
// whole registry into a gap-to-bound atlas; the gap gate fails loudly (exit
// 1) when a correct protocol is broken or undercut, or when a strawman
// survives unbroken.
//
// Usage:
//
//	baattack -attack replay   -protocol strawman-broadcast -n 9 -t 3
//	baattack -attack omission -protocol strawman-broadcast -n 8 -t 2
//	baattack -attack replay   -protocol alg1 -t 4
//	baattack -attack starve   -protocol alg1 -t 4   # Theorem 2 audit
//	baattack -search -protocol all -budget 240 -seed 1
//	baattack -search -protocol alg1 -n 5 -t 2 -objective msgs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"byzex/internal/audit"
	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/runner"
	"byzex/internal/search"
	"byzex/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("baattack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		attack = fs.String("attack", "replay", "attack: replay|omission|starve|audit")
		// baattack's own, narrower -protocol — the one flag of the template
		// surface not declared through cli.RegisterTemplateFlags: it also
		// accepts "all", defaults to a strawman, and comes without
		// -adversary/-faults/-scheme, which the attacks and the search choose
		// themselves.
		protoName = fs.String("protocol", "strawman-broadcast", `target protocol ("all" sweeps the registry, -search only)`)
		n         = fs.Int("n", 0, "number of processors (default 2t+1)")
		t         = fs.Int("t", 3, "fault bound")
		s         = fs.Int("s", 0, "parameter for alg3/alg5 (default t)")
		seed      = fs.Int64("seed", 1, "search seed; a fixed seed reproduces the gap table byte-identically")
	)
	rf := cli.RegisterRunFlags(fs)
	sf := cli.RegisterSearchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	params := cli.Template{N: *n, T: *t, S: *s}.Params()

	sink, stop, err := rf.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The attacks drive core.Run internally; a sink on the context reaches
	// every one of those runs without lowerbound needing trace plumbing.
	ctx := context.Background()
	if sink != nil {
		ctx = trace.NewContext(ctx, sink)
	}
	if *sf.Search {
		err = runSearch(ctx, stdout, sf, *protoName, params, *seed, sink)
	} else {
		err = runAttack(ctx, stdout, *attack, *protoName, params)
	}
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	switch {
	case errors.Is(err, errUnknownAttack):
		fmt.Fprintln(stderr, err)
		return 2
	case err != nil:
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

var errUnknownAttack = errors.New("unknown attack")

// runAttack is the scripted mode: one of the paper's lower-bound
// constructions against one protocol.
func runAttack(ctx context.Context, stdout io.Writer, attack, protoName string, params cli.Params) error {
	n, t := params.N, params.T
	proto, err := cli.Protocol(protoName, params)
	if err != nil {
		return err
	}
	switch attack {
	case "audit":
		a, err := audit.AuditSignatures(ctx, proto, n, t, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Theorem 1 audit of %s (n=%d, t=%d)\n", proto.Name(), n, t)
		fmt.Fprintf(stdout, "  signatures in H (v=0): %d\n", a.HSignatures)
		fmt.Fprintf(stdout, "  signatures in G (v=1): %d\n", a.GSignatures)
		fmt.Fprintf(stdout, "  lower bound n(t+1)/4:  %d\n", a.Bound)
		fmt.Fprintf(stdout, "  min |A(p)| = |A(%v)| = %d (need ≥ %d)\n", a.MinAP, a.MinAPSize, t+1)
		if a.Satisfied() {
			fmt.Fprintln(stdout, "  verdict: bound respected")
		} else {
			fmt.Fprintln(stdout, "  verdict: VULNERABLE — run -attack replay")
		}
	case "replay":
		out, err := audit.ReplayAttack(ctx, proto, n, t, nil)
		if errors.Is(err, audit.ErrBoundRespected) {
			fmt.Fprintf(stdout, "%s respects Theorem 1's bound: %v\n", proto.Name(), err)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Theorem 1 replay attack on %s (n=%d, t=%d)\n", proto.Name(), n, t)
		fmt.Fprintf(stdout, "  victim: %v, coalition A(p): %v\n", out.Victim, out.Faulty.Sorted())
		printDecisions(stdout, out)
	case "omission":
		out, err := audit.OmissionAttack(ctx, proto, n, t, nil)
		if errors.Is(err, audit.ErrBoundRespected) {
			fmt.Fprintf(stdout, "%s respects the omission bound: %v\n", proto.Name(), err)
			return nil
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Theorem 2 omission attack on %s (n=%d, t=%d)\n", proto.Name(), n, t)
		fmt.Fprintf(stdout, "  victim: %v, coalition: %v\n", out.Victim, out.Faulty.Sorted())
		printDecisions(stdout, out)
	case "starve":
		a, err := audit.StarvationAudit(ctx, proto, n, t, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Theorem 2 starvation audit of %s (n=%d, t=%d)\n", proto.Name(), n, t)
		fmt.Fprintf(stdout, "  starved coalition B: %v (each ignoring first %d messages)\n", a.B.Sorted(), a.IgnoreFirst)
		for _, q := range a.B.Sorted() {
			fmt.Fprintf(stdout, "  messages into %v from correct processors: %d (need ≥ %d)\n", q, a.PerMember[q], a.RequiredPerMember)
		}
		fmt.Fprintf(stdout, "  total messages by correct processors: %d (Theorem 2 bound %d)\n", a.TotalMessages, a.Bound)
		if a.Satisfied() {
			fmt.Fprintln(stdout, "  verdict: bound respected")
		} else {
			fmt.Fprintln(stdout, "  verdict: VULNERABLE")
		}
	default:
		return fmt.Errorf("%w %q", errUnknownAttack, attack)
	}
	return nil
}

// runSearch is the -search mode: one search per (protocol, objective),
// rendered as the gap-to-bound atlas and gated by search.CheckRows.
func runSearch(ctx context.Context, stdout io.Writer, sf *cli.SearchFlags, protoName string, params cli.Params, seed int64, sink trace.Sink) error {
	cfg := search.AtlasConfig{
		Budget: *sf.Budget,
		Seed:   seed,
		Pool:   runner.New(*sf.Parallel),
		Trace:  sink,
	}
	if *sf.Objective != "both" {
		obj, err := search.ParseObjective(*sf.Objective)
		if err != nil {
			return err
		}
		cfg.Objectives = []search.Objective{obj}
	}
	var (
		rows []search.Row
		err  error
	)
	if protoName == "all" {
		rows, err = search.RunAtlas(ctx, cfg)
	} else {
		// One registry row, at the command line's size instead of its
		// canonical one.
		var e cli.Entry
		if e, err = cli.Lookup(protoName); err != nil {
			return err
		}
		e.N, e.T = params.N, params.T
		rows, err = search.RunTargets(ctx, []search.Target{{Entry: e, S: params.S}}, cfg)
	}
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("no rows: the sigs objective needs an authenticated scheme (%s is unauthenticated)", protoName)
	}
	fmt.Fprintf(stdout, "Adversary search vs the Theorem 1/2 bounds (budget=%d per row, seed=%d)\n", *sf.Budget, seed)
	fmt.Fprint(stdout, search.RenderRows(rows))
	fmt.Fprintf(stdout, "provenance: seed-arms=strategies+canonical-plans, halving<=2/5 budget, anneal width=4 temp=0.35 x0.92 floor=0.02\n")
	return search.CheckRows(rows)
}

func printDecisions(stdout io.Writer, out *audit.AttackOutcome) {
	ids := make([]int, 0, len(out.Decisions))
	for id := range out.Decisions {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(stdout, "  p%d decided %v\n", id, out.Decisions[ident.ProcID(id)])
	}
	if out.Broke() {
		fmt.Fprintf(stdout, "  RESULT: Byzantine Agreement violated — %v\n", out.Violation)
	} else {
		fmt.Fprintln(stdout, "  RESULT: protocol survived")
	}
}
