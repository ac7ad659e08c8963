package phaseking_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/phaseking"
	"byzex/internal/sig"
)

func cfg(n, tt int, v ident.Value, adv adversary.Adversary) core.Config {
	return core.Config{
		Protocol: phaseking.Protocol{}, N: n, T: tt, Value: v,
		Scheme: sig.NewPlain(n), Adversary: adv, Seed: 19,
	}
}

func TestCheck(t *testing.T) {
	p := phaseking.Protocol{}
	if err := p.Check(8, 2); err == nil {
		t.Fatal("n = 4t accepted")
	}
	if err := p.Check(9, 2); err != nil {
		t.Fatalf("n=9 t=2 rejected: %v", err)
	}
	if err := p.Check(1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestFaultFree(t *testing.T) {
	for _, tc := range []struct{ n, t int }{
		{5, 1}, {9, 2}, {13, 3}, {21, 5}, {2, 0},
	} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			res, got, err := core.RunAndCheck(context.Background(), cfg(tc.n, tc.t, v, nil))
			if err != nil {
				t.Fatalf("n=%d t=%d v=%v: %v", tc.n, tc.t, v, err)
			}
			if got != v {
				t.Fatalf("n=%d: decided %v want %v", tc.n, got, v)
			}
			if msgs, bound := res.Sim.Report.MessagesCorrect, phaseking.MsgUpperBound(tc.n, tc.t); msgs > bound {
				t.Fatalf("n=%d t=%d: %d msgs > bound %d", tc.n, tc.t, msgs, bound)
			}
		}
	}
}

func TestMultiValued(t *testing.T) {
	for _, v := range []ident.Value{3, 17, -5} {
		_, got, err := core.RunAndCheck(context.Background(), cfg(9, 2, v, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("decided %v want %v", got, v)
		}
	}
}

func TestAdversarySuite(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{9, 2}, {13, 3}} {
		// Crashing processors are a fault-plan rule: the last t stop after phase 3.
		crash := faultnet.MustCompile(faultnet.Spec{}.WithCrash(adversary.LastNonTransmitter(tc.n, tc.t, 0), 4), 19)
		for _, f := range []struct {
			name   string
			adv    adversary.Adversary
			faults *faultnet.Plan
		}{{"silent", adversary.Silent{}, nil}, {"crash", nil, crash}, {"garbage", adversary.Garbage{PerPhase: 5}, nil}} {
			for _, v := range []ident.Value{ident.V0, ident.V1} {
				c := cfg(tc.n, tc.t, v, f.adv)
				c.Faults = f.faults
				if _, _, err := core.RunAndCheck(context.Background(), c); err != nil {
					t.Fatalf("%s n=%d t=%d v=%v: %v", f.name, tc.n, tc.t, v, err)
				}
			}
		}
	}
}

func TestSplitBrainTransmitter(t *testing.T) {
	// An equivocating transmitter seeds the system with mixed values; the
	// king phases must still converge.
	for _, tc := range []struct{ n, t int }{{9, 2}, {13, 3}} {
		for split := 1; split < tc.n; split += 3 {
			adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(split)}
			if _, _, err := core.RunAndCheck(context.Background(), cfg(tc.n, tc.t, ident.V1, adv)); err != nil {
				t.Fatalf("n=%d split=%d: %v", tc.n, split, err)
			}
		}
	}
}

func TestFaultyKings(t *testing.T) {
	// Corrupt exactly the first t kings (processors 1..t plus 0 stays
	// correct as transmitter... corrupt ids 1..t): the remaining correct
	// king (one of 0..t must be correct) still forces convergence.
	n, tt := 13, 3
	faulty := ident.NewSet(1, 2, 3)
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: phaseking.Protocol{}, N: n, T: tt, Value: v,
			Scheme: sig.NewPlain(n), Adversary: adversary.Silent{}, FaultyOverride: &faulty, Seed: 2,
		}); err != nil {
			t.Fatalf("v=%v: %v", v, err)
		}
	}
}

func TestChaosSweep(t *testing.T) {
	for seed := 0; seed < 10; seed++ {
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: phaseking.Protocol{}, N: 13, T: 3, Value: ident.V1,
			Scheme: sig.NewPlain(13), Adversary: adversary.Chaos{}, Seed: int64(seed),
		}); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}

func TestAboveUnauthLowerBound(t *testing.T) {
	// Corollary 1 applies: the fault-free count must exceed n(t+1)/4.
	for _, tc := range []struct{ n, t int }{{9, 2}, {13, 3}, {21, 5}} {
		res, _, err := core.RunAndCheck(context.Background(), cfg(tc.n, tc.t, ident.V1, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got, bound := res.Sim.Report.MessagesCorrect, core.MsgLowerBoundUnauth(tc.n, tc.t); got < bound {
			t.Fatalf("n=%d t=%d: %d < %d", tc.n, tc.t, got, bound)
		}
	}
}

func TestKingHearsItself(t *testing.T) {
	// A three-faced transmitter leaves no super-majority at n=5 t=1, so the
	// correct processors all take the correct king p1's announcement — p1
	// too, though Broadcast does not deliver its own message to it.
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		res, err := core.Run(context.Background(), cfg(5, 1, v, adversary.MultiFaced{Values: []ident.Value{0, 1, 2}}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Decision(0, v); err != nil {
			t.Errorf("%v: %v", v, err)
		}
	}
}
