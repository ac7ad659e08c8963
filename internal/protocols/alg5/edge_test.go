package alg5_test

import (
	"context"
	"fmt"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/audit"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg5"
	"byzex/internal/sig"
)

func sigScheme(n int) sig.Scheme { return sig.NewHMAC(n, 123) }

func TestExactlyAlphaProcessors(t *testing.T) {
	// n == α: the full mode with an empty passive forest.
	for _, tt := range []int{1, 2, 3} {
		n := alg5.Alpha(tt)
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			if _, _, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: alg5.Protocol{S: tt}, N: n, T: tt, Value: v, Seed: 1,
			}); err != nil {
				t.Fatalf("n=α=%d t=%d: %v", n, tt, err)
			}
		}
	}
}

func TestSinglePassive(t *testing.T) {
	// n == α+1: one passive processor, a forest of a single one-member tree.
	for _, tt := range []int{1, 2, 3} {
		n := alg5.Alpha(tt) + 1
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			if _, _, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: alg5.Protocol{S: tt}, N: n, T: tt, Value: v, Seed: 2,
			}); err != nil {
				t.Fatalf("n=%d t=%d: %v", n, tt, err)
			}
		}
	}
}

func TestBoundaryJustBelowAlpha(t *testing.T) {
	// n == α-1: the fan-out degenerate mode at its upper edge.
	for _, tt := range []int{2, 3, 4} {
		n := alg5.Alpha(tt) - 1
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			if _, _, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: alg5.Protocol{S: tt}, N: n, T: tt, Value: v, Seed: 3,
			}); err != nil {
				t.Fatalf("n=%d t=%d: %v", n, tt, err)
			}
		}
	}
}

func TestTEqualsOne(t *testing.T) {
	// The smallest tolerant configuration across all three modes.
	for _, n := range []int{3, 5, 8, 9, 10, 30} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			if _, _, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: alg5.Protocol{S: 1}, N: n, T: 1, Value: v, Seed: 4,
			}); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

func TestChaosFaultyTreeNodes(t *testing.T) {
	// Chaos faults placed specifically on passive tree positions (roots and
	// inner nodes): the remaining passives must still converge, across many
	// seeds.
	n, tt, s := 60, 3, 3 // α=25, trees of 3 over 35 passives
	for seed := 0; seed < 10; seed++ {
		faulty := ident.NewSet(25, 28, 31) // roots of the first three trees
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg5.Protocol{S: s}, N: n, T: tt, Value: ident.V1,
			Adversary: adversary.Chaos{}, FaultyOverride: &faulty, Seed: int64(seed),
		}); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestEveryoneHoldsCertificates(t *testing.T) {
	// Every correct processor — active or passive — ends the run with a
	// transferable valid message: the common value plus ≥ t+1 core-active
	// signatures, externally verifiable through alg2.VerifyProof.
	n, tt, s := 60, 3, 3
	scheme := sigScheme(n)
	res, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: alg5.Protocol{S: s}, N: n, T: tt, Value: ident.V1, Scheme: scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, nd := range res.Nodes {
		holder, ok := nd.(alg2.ProofHolder)
		if !ok {
			t.Fatalf("node %d exposes no proof", id)
		}
		proof, has := holder.Proof()
		if !has {
			t.Fatalf("node %d holds no certificate", id)
		}
		if proof.Value != ident.V1 {
			t.Fatalf("node %d certificate for %v", id, proof.Value)
		}
		if err := alg2.VerifyProof(proof, ident.Range(n), tt, scheme); err != nil {
			t.Fatalf("node %d certificate rejected: %v", id, err)
		}
	}
}

func TestDeterministicHistories(t *testing.T) {
	// Identical configurations produce bit-identical histories — the
	// foundation of the replay machinery and the experiments' exact
	// reproducibility.
	run := func() *audit.History {
		_, h, err := audit.Record(context.Background(), core.Config{
			Protocol: alg5.Protocol{S: 2}, N: 40, T: 2, Value: ident.V1,
			Adversary: adversary.Chaos{}, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b := run(), run()
	if a.NumPhases() != b.NumPhases() {
		t.Fatalf("phase counts differ: %d vs %d", a.NumPhases(), b.NumPhases())
	}
	for ph := 1; ph <= a.NumPhases(); ph++ {
		ea, eb := a.PhaseEdges(ph), b.PhaseEdges(ph)
		if len(ea) != len(eb) {
			t.Fatalf("phase %d: %d vs %d edges", ph, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i].From != eb[i].From || ea[i].To != eb[i].To ||
				fmt.Sprintf("%x", ea[i].Label) != fmt.Sprintf("%x", eb[i].Label) {
				t.Fatalf("phase %d edge %d differs", ph, i)
			}
		}
	}
}
