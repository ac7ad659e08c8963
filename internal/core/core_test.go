package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

var bg = context.Background()

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := core.Run(bg, core.Config{}); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := core.Run(bg, core.Config{Protocol: alg1.Protocol{}, N: 6, T: 2}); err == nil {
		t.Fatal("alg1 with n != 2t+1 accepted")
	}
}

// TestDecisionErrors pins the shared judge: the error kinds, that the
// processor an error names is the lowest-id offender however the map
// iterates or is keyed — a later undecided processor never displaces an
// earlier disagreement — that ErrValidity still carries the common value,
// and that the dense keying both substrates produce is judged without
// allocating.
func TestDecisionErrors(t *testing.T) {
	dec := func(vals ...int) map[ident.ProcID]sim.Decision {
		out := make(map[ident.ProcID]sim.Decision)
		for id, v := range vals {
			out[ident.ProcID(id)] = sim.Decision{Value: ident.Value(v), Decided: v >= 0}
		}
		return out
	}
	sparse := map[ident.ProcID]sim.Decision{
		40: {Value: 1, Decided: true}, 7: {Value: 1, Decided: true}, 23: {}, 9: {},
	}
	for _, tc := range []struct {
		name      string
		decisions map[ident.ProcID]sim.Decision
		faulty    ident.Set
		want      error
		wantMsg   string
		wantValue ident.Value
	}{
		{"agree", dec(1, 1, 1, 1), ident.Set{}, nil, "", 1},
		{"faulty outputs ignored", dec(1, 0, -1, 1), ident.NewSet(1, 2), nil, "", 1},
		{"lowest undecided is named", dec(1, 1, -1, 1, -1, -1), ident.Set{}, core.ErrNoDecision, "p2", 0},
		{"disagreement", dec(1, 1, 0), ident.Set{}, core.ErrDisagreement, "p2 decided v=0, others v=1", 0},
		{"disagreement before an undecided", dec(1, 0, -1), ident.Set{}, core.ErrDisagreement, "p1 decided v=0, others v=1", 0},
		{"all undecided", dec(-1, -1), ident.Set{}, core.ErrNoDecision, "p0", 0},
		{"validity keeps the common value", dec(5, 5, 5), ident.Set{}, core.ErrValidity, "decided v=5", 5},
		{"faulty transmitter waives validity", dec(1, 0, 0), ident.NewSet(0), nil, "", 0},
		{"nobody correct", dec(1), ident.NewSet(0), core.ErrNoDecision, "no correct", 0},
		{"sparse keys are sorted", sparse, ident.Set{}, core.ErrNoDecision, "p9", 0},
	} {
		for range 20 { // map iteration order varies call to call
			got, err := core.CheckDecisions(tc.decisions, tc.faulty, 0, ident.V1)
			if !errors.Is(err, tc.want) || (err != nil && !strings.Contains(err.Error(), tc.wantMsg)) || got != tc.wantValue {
				t.Fatalf("%s: got (%v, %v), want value %v, error %v mentioning %q", tc.name, got, err, tc.wantValue, tc.want, tc.wantMsg)
			}
		}
	}
	dense := dec(1, 1, 1, 1, 1, 1, 1)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = core.CheckDecisions(dense, ident.Set{}, 0, ident.V1) }); allocs != 0 {
		t.Fatalf("judging a densely keyed map allocates %.0f times", allocs)
	}
}

func TestFaultyOverrideWins(t *testing.T) {
	want := ident.NewSet(3)
	res, err := core.Run(bg, core.Config{
		Protocol: dolevstrong.Protocol{}, N: 6, T: 2, Value: ident.V1,
		Adversary: adversary.Silent{}, FaultyOverride: &want,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faulty.Len() != 1 || !res.Faulty.Has(3) {
		t.Fatalf("faulty %v, want {3}", res.Faulty.Sorted())
	}
}

func TestExplicitSchemeUsed(t *testing.T) {
	// Ed25519 end-to-end through a protocol run.
	scheme, err := sig.NewEd25519(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.RunAndCheck(bg, core.Config{
		Protocol: alg1.Protocol{}, N: 5, T: 2, Value: ident.V1, Scheme: scheme,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRunsSameSeed(t *testing.T) {
	run := func() int {
		res, err := core.Run(bg, core.Config{
			Protocol: dolevstrong.Protocol{}, N: 7, T: 2, Value: ident.V1,
			Adversary: adversary.Garbage{}, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Sim.Report.MessagesCorrect + res.Sim.Report.MessagesFaulty
	}
	if run() != run() {
		t.Fatal("same seed, different traffic")
	}
}

func TestNodesExposed(t *testing.T) {
	res, err := core.Run(bg, core.Config{Protocol: alg1.Protocol{}, N: 5, T: 2, Value: ident.V1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 5 {
		t.Fatalf("nodes %d", len(res.Nodes))
	}
	for i, nd := range res.Nodes {
		if nd == nil {
			t.Fatalf("node %d nil", i)
		}
	}
}

func TestTransmitterFaultyValidityWaived(t *testing.T) {
	adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 3}
	res, err := core.Run(bg, core.Config{
		Protocol: dolevstrong.Protocol{}, N: 7, T: 2, Value: ident.V1, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Decision() must not demand condition (ii) when the transmitter is
	// faulty: with id 0 in Faulty the call uses only condition (i).
	if _, err := res.Decision(0, ident.V1); err != nil {
		t.Fatalf("decision check failed despite faulty transmitter: %v", err)
	}
}
