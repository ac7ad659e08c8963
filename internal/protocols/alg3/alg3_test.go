package alg3_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg3"
)

func run(t *testing.T, n, tt, s int, v ident.Value, adv adversary.Adversary, faulty *ident.Set) *core.Result {
	t.Helper()
	res, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: alg3.Protocol{S: s}, N: n, T: tt, Value: v,
		Adversary: adv, FaultyOverride: faulty, Seed: 11,
	})
	if err != nil {
		t.Fatalf("n=%d t=%d s=%d v=%v adv=%v: %v", n, tt, s, v, advName(adv), err)
	}
	return res
}

func advName(a adversary.Adversary) string {
	if a == nil {
		return "none"
	}
	return a.Name()
}

func TestFaultFree(t *testing.T) {
	for _, tc := range []struct{ n, t, s int }{
		{7, 2, 1}, {9, 2, 2}, {16, 2, 3}, {33, 3, 4}, {64, 4, 8}, {64, 4, 16}, {100, 3, 12},
	} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			res := run(t, tc.n, tc.t, tc.s, v, nil, nil)
			if got, bound := res.Sim.Report.MessagesCorrect, core.Alg3MsgUpperBound(tc.n, tc.t, tc.s); got > bound {
				t.Errorf("n=%d t=%d s=%d: %d msgs > bound %d", tc.n, tc.t, tc.s, got, bound)
			}
			if want := core.Alg3Phases(tc.t, tc.s); res.Phases != want {
				t.Errorf("n=%d t=%d s=%d: phases %d, want %d", tc.n, tc.t, tc.s, res.Phases, want)
			}
		}
	}
}

func TestUnderAdversaries(t *testing.T) {
	advs := []adversary.Adversary{
		adversary.Silent{},
		adversary.Crash{CrashAfter: 4},
		adversary.Garbage{},
	}
	for _, adv := range advs {
		for _, tc := range []struct{ n, t, s int }{
			{9, 2, 2}, {33, 3, 4}, {50, 4, 6},
		} {
			for _, v := range []ident.Value{ident.V0, ident.V1} {
				res := run(t, tc.n, tc.t, tc.s, v, adv, nil)
				if got, bound := res.Sim.Report.MessagesCorrect, core.Alg3MsgUpperBound(tc.n, tc.t, tc.s); got > bound {
					t.Errorf("%s n=%d t=%d s=%d: %d msgs > bound %d", adv.Name(), tc.n, tc.t, tc.s, got, bound)
				}
			}
		}
	}
}

func TestFaultyRoots(t *testing.T) {
	// Corrupt exactly the roots of the first sets: their members must be
	// covered by the active processors' direct sends in the last phase.
	n, tt, s := 33, 3, 4
	faulty := ident.NewSet(7, 11, 15) // roots of sets 0, 1, 2 (actives are 0..6)
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		run(t, n, tt, s, v, adversary.Silent{}, &faulty)
	}
}

func TestFaultyMembers(t *testing.T) {
	// Corrupt non-root members: the chain skips them; everyone else still
	// agrees and the message bound holds.
	n, tt, s := 33, 3, 4
	faulty := ident.NewSet(8, 9, 12)
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		res := run(t, n, tt, s, v, adversary.Silent{}, &faulty)
		if got, bound := res.Sim.Report.MessagesCorrect, core.Alg3MsgUpperBound(n, tt, s); got > bound {
			t.Errorf("%d msgs > bound %d", got, bound)
		}
	}
}

func TestSplitBrainTransmitter(t *testing.T) {
	// Faulty transmitter equivocates; the actives still agree via
	// Algorithm 1 and distribute a single value.
	for _, tc := range []struct{ n, t, s int }{
		{9, 2, 2}, {33, 3, 4},
	} {
		adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(tc.n / 2)}
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg3.Protocol{S: tc.s}, N: tc.n, T: tc.t, Value: ident.V1, Adversary: adv, Seed: 3,
		}); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
	}
}
