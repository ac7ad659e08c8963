package dolevstrong_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/dolevstrong"
)

func run(t *testing.T, n, tt int, v ident.Value, adv adversary.Adversary, faulty *ident.Set, faults *faultnet.Plan) *core.Result {
	t.Helper()
	res, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: dolevstrong.Protocol{}, N: n, T: tt, Value: v,
		Adversary: adv, FaultyOverride: faulty, Faults: faults, Seed: 31,
	})
	if err != nil {
		t.Fatalf("n=%d t=%d v=%v: %v", n, tt, v, err)
	}
	return res
}

func TestCheck(t *testing.T) {
	p := dolevstrong.Protocol{}
	if err := p.Check(3, 2); err == nil {
		t.Fatal("n < t+2 accepted")
	}
	if err := p.Check(1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	// Authenticated BA tolerates any t < n-1, including majorities.
	if err := p.Check(5, 3); err != nil {
		t.Fatalf("n=5 t=3 rejected: %v", err)
	}
}

func TestFaultFree(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{2, 0}, {4, 1}, {7, 3}, {12, 5}} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			run(t, tc.n, tc.t, v, nil, nil, nil)
		}
	}
}

func TestByzantineMajorityOfRelays(t *testing.T) {
	// Authentication tolerates t ≥ n/2 as long as the transmitter is
	// correct... and even a faulty transmitter only forces agreement on
	// *some* common value. Here: 5 processors, 3 faults.
	n, tt := 5, 3
	faulty := ident.NewSet(2, 3, 4)
	run(t, n, tt, ident.V1, adversary.Silent{}, &faulty, nil)
}

func TestSplitBrainEveryPhaseBudget(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {9, 4}} {
		adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(tc.n / 2)}
		_, got, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: dolevstrong.Protocol{}, N: tc.n, T: tc.t, Value: ident.V1, Adversary: adv, Seed: 5,
		})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		// With an equivocating transmitter every correct processor should
		// extract both values and fall to the default.
		if got != ident.V0 {
			t.Fatalf("n=%d: expected default 0 decision, got %v", tc.n, got)
		}
	}
}

func TestQuadraticMessageShape(t *testing.T) {
	// Fault-free value-v run: transmitter broadcasts (n-1), every other
	// processor relays the single value once to all n-1 peers — total
	// n(n-1).
	for _, n := range []int{4, 8, 12} {
		res := run(t, n, 2, ident.V1, nil, nil, nil)
		want := n * (n - 1)
		if got := res.Sim.Report.MessagesCorrect; got != want {
			t.Fatalf("n=%d: %d msgs, want %d", n, got, want)
		}
	}
}

func TestGarbageResistance(t *testing.T) {
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		res := run(t, 7, 2, v, adversary.Garbage{PerPhase: 6}, nil, nil)
		if got, _ := res.Decision(0, v); got != v {
			t.Fatalf("decided %v, want %v", got, v)
		}
	}
}

func TestCrashAtEveryPhase(t *testing.T) {
	// Crashing at each phase boundary must never break agreement.
	n, tt := 7, 3
	for crashAt := 0; crashAt <= tt+1; crashAt++ {
		// The last t processors stop after phase crashAt: a fault-plan rule.
		crash := faultnet.MustCompile(faultnet.Spec{}.WithCrash(adversary.LastNonTransmitter(n, tt, 0), crashAt+1), 31)
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			run(t, n, tt, v, nil, nil, crash)
		}
	}
}
