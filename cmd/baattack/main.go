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
	"os"
	"sort"

	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/lowerbound"
	"byzex/internal/runner"
	"byzex/internal/search"
	"byzex/internal/trace"
)

func main() {
	var (
		attack    = flag.String("attack", "replay", "attack: replay|omission|starve|audit")
		protoName = flag.String("protocol", "strawman-broadcast", `target protocol ("all" sweeps the registry, -search only)`)
		n         = flag.Int("n", 0, "number of processors (default 2t+1)")
		t         = flag.Int("t", 3, "fault bound")
		s         = flag.Int("s", 0, "parameter for alg3/alg5 (default t)")
		seed      = flag.Int64("seed", 1, "search seed; a fixed seed reproduces the gap table byte-identically")
		tracePath = flag.String("trace", "", "write the execution trace of the attack's runs (JSONL) to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	sf := cli.RegisterSearchFlags(flag.CommandLine)
	flag.Parse()
	if *n == 0 {
		*n = 2**t + 1
	}
	if *s == 0 {
		*s = *t
	}

	prof, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fail(err)
		}
	}()

	ctx := context.Background()
	// The attacks drive core.Run internally; a sink on the context reaches
	// every one of those runs without lowerbound needing trace plumbing.
	var traceSink *trace.JSONL
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		defer func() { _ = f.Close() }()
		traceSink = trace.NewJSONL(f)
		defer func() {
			if err := traceSink.Flush(); err != nil {
				fail(err)
			}
		}()
		ctx = trace.NewContext(ctx, traceSink)
	}

	if *sf.Search {
		runSearch(ctx, sf, *protoName, *n, *t, *s, *seed, traceSink)
		return
	}

	proto, err := cli.Protocol(*protoName, cli.Params{N: *n, T: *t, S: *s})
	if err != nil {
		fail(err)
	}
	switch *attack {
	case "audit":
		audit, err := lowerbound.AuditSignatures(ctx, proto, *n, *t, nil)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Theorem 1 audit of %s (n=%d, t=%d)\n", proto.Name(), *n, *t)
		fmt.Printf("  signatures in H (v=0): %d\n", audit.HSignatures)
		fmt.Printf("  signatures in G (v=1): %d\n", audit.GSignatures)
		fmt.Printf("  lower bound n(t+1)/4:  %d\n", audit.Bound)
		fmt.Printf("  min |A(p)| = |A(%v)| = %d (need ≥ %d)\n", audit.MinAP, audit.MinAPSize, *t+1)
		if audit.Satisfied() {
			fmt.Println("  verdict: bound respected")
		} else {
			fmt.Println("  verdict: VULNERABLE — run -attack replay")
		}
	case "replay":
		out, err := lowerbound.ReplayAttack(ctx, proto, *n, *t, nil)
		if errors.Is(err, lowerbound.ErrBoundRespected) {
			fmt.Printf("%s respects Theorem 1's bound: %v\n", proto.Name(), err)
			return
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("Theorem 1 replay attack on %s (n=%d, t=%d)\n", proto.Name(), *n, *t)
		fmt.Printf("  victim: %v, coalition A(p): %v\n", out.Victim, out.Faulty.Sorted())
		printDecisions(out)
	case "omission":
		out, err := lowerbound.OmissionAttack(ctx, proto, *n, *t, nil)
		if errors.Is(err, lowerbound.ErrBoundRespected) {
			fmt.Printf("%s respects the omission bound: %v\n", proto.Name(), err)
			return
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("Theorem 2 omission attack on %s (n=%d, t=%d)\n", proto.Name(), *n, *t)
		fmt.Printf("  victim: %v, coalition: %v\n", out.Victim, out.Faulty.Sorted())
		printDecisions(out)
	case "starve":
		audit, err := lowerbound.StarvationAudit(ctx, proto, *n, *t, nil)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Theorem 2 starvation audit of %s (n=%d, t=%d)\n", proto.Name(), *n, *t)
		fmt.Printf("  starved coalition B: %v (each ignoring first %d messages)\n", audit.B.Sorted(), audit.IgnoreFirst)
		ids := audit.B.Sorted()
		for _, q := range ids {
			fmt.Printf("  messages into %v from correct processors: %d (need ≥ %d)\n", q, audit.PerMember[q], audit.RequiredPerMember)
		}
		fmt.Printf("  total messages by correct processors: %d (Theorem 2 bound %d)\n", audit.TotalMessages, audit.Bound)
		if audit.Satisfied() {
			fmt.Println("  verdict: bound respected")
		} else {
			fmt.Println("  verdict: VULNERABLE")
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown attack %q\n", *attack)
		os.Exit(2)
	}
}

// runSearch is the -search mode: one search per (protocol, objective),
// rendered as the gap-to-bound atlas and gated by search.CheckRows.
func runSearch(ctx context.Context, sf *cli.SearchFlags, protoName string, n, t, s int, seed int64, traceSink *trace.JSONL) {
	var objectives []search.Objective
	if *sf.Objective != "both" {
		obj, err := search.ParseObjective(*sf.Objective)
		if err != nil {
			fail(err)
		}
		objectives = []search.Objective{obj}
	}
	var targets []search.Target
	if protoName == "all" {
		targets = search.Targets()
	} else {
		targets = []search.Target{{
			Name:   protoName,
			N:      n,
			T:      t,
			S:      s,
			Scheme: search.SchemeFor(protoName),
			Class:  search.ClassOf(protoName),
		}}
	}
	cfg := search.AtlasConfig{
		Objectives: objectives,
		Budget:     *sf.Budget,
		Seed:       seed,
		Pool:       runner.New(*sf.Parallel),
	}
	if traceSink != nil {
		cfg.Trace = traceSink
	}
	rows, err := search.RunTargets(ctx, targets, cfg)
	if err != nil {
		fail(err)
	}
	if len(rows) == 0 {
		fail(fmt.Errorf("no rows: the sigs objective needs an authenticated scheme (%s is unauthenticated)", protoName))
	}
	fmt.Printf("Adversary search vs the Theorem 1/2 bounds (budget=%d per row, seed=%d)\n", *sf.Budget, seed)
	fmt.Print(search.RenderRows(rows))
	fmt.Printf("provenance: seed-arms=strategies+canonical-plans, halving<=2/5 budget, anneal width=4 temp=0.35 x0.92 floor=0.02\n")
	if err := search.CheckRows(rows); err != nil {
		fail(err)
	}
}

func printDecisions(out *lowerbound.AttackOutcome) {
	ids := make([]int, 0, len(out.Decisions))
	for id := range out.Decisions {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  p%d decided %v\n", id, out.Decisions[ident.ProcID(id)])
	}
	if out.Broke() {
		fmt.Printf("  RESULT: Byzantine Agreement violated — %v\n", out.Violation)
	} else {
		fmt.Println("  RESULT: protocol survived")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
