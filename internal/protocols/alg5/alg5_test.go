package alg5_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg5"
)

func run(t *testing.T, n, tt, s int, v ident.Value, adv adversary.Adversary, faulty *ident.Set) *core.Result {
	t.Helper()
	res, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: alg5.Protocol{S: s}, N: n, T: tt, Value: v,
		Adversary: adv, FaultyOverride: faulty, Seed: 5,
	})
	if err != nil {
		t.Fatalf("n=%d t=%d s=%d v=%v: %v", n, tt, s, v, err)
	}
	return res
}

func TestAlphaValues(t *testing.T) {
	for _, tc := range []struct{ t, want int }{
		{1, 9}, {2, 16}, {3, 25}, {4, 25}, {5, 36}, {6, 49}, {10, 64}, {16, 100},
	} {
		if got := alg5.Alpha(tc.t); got != tc.want {
			t.Errorf("Alpha(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestModeAlg2Only(t *testing.T) {
	// n = 2t+1 degenerates to Algorithm 2.
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		run(t, 7, 3, 3, v, nil, nil)
	}
}

func TestModeFanout(t *testing.T) {
	// 2t+1 < n < α.
	for _, tc := range []struct{ n, t int }{
		{8, 3}, {20, 3}, {24, 4},
	} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			run(t, tc.n, tc.t, 3, v, nil, nil)
		}
	}
}

func TestModeFullFaultFree(t *testing.T) {
	for _, tc := range []struct{ n, t, s int }{
		{16, 2, 1}, {25, 2, 2}, {40, 3, 3}, {64, 3, 3}, {100, 4, 4}, {200, 3, 7}, {60, 2, 2},
	} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			res := run(t, tc.n, tc.t, tc.s, v, nil, nil)
			if got, bound := res.Sim.Report.MessagesCorrect, core.Alg5MsgUpperBound(tc.n, tc.t, tc.s); got > bound {
				t.Errorf("n=%d t=%d s=%d: %d msgs > bound %d", tc.n, tc.t, tc.s, got, bound)
			}
			if got, bound := res.Phases, core.Alg5Phases(tc.t, tc.s); got > bound {
				t.Errorf("n=%d t=%d s=%d: %d phases > bound %d", tc.n, tc.t, tc.s, got, bound)
			}
		}
	}
}

func TestModeFullAdversaries(t *testing.T) {
	advs := []adversary.Adversary{
		adversary.Silent{},
		adversary.Crash{CrashAfter: 6},
		adversary.Garbage{},
	}
	for _, adv := range advs {
		for _, tc := range []struct{ n, t, s int }{
			{25, 2, 2}, {40, 3, 3}, {100, 4, 4},
		} {
			for _, v := range []ident.Value{ident.V0, ident.V1} {
				res := run(t, tc.n, tc.t, tc.s, v, adv, nil)
				if got, bound := res.Sim.Report.MessagesCorrect, core.Alg5MsgUpperBound(tc.n, tc.t, tc.s); got > bound {
					t.Errorf("%s n=%d t=%d s=%d: %d msgs > bound %d", adv.Name(), tc.n, tc.t, tc.s, got, bound)
				}
			}
		}
	}
}

func TestFaultyPassives(t *testing.T) {
	// Corrupt passive processors (tree roots and members go silent): the
	// remaining passives must still learn the value via later blocks.
	n, tt, s := 60, 3, 3
	// α = 25 for t=3, so passives start at id 25. Corrupt the root of the
	// first tree (25), an inner node (26) and a leaf (29).
	faulty := ident.NewSet(25, 26, 29)
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		run(t, n, tt, s, v, adversary.Silent{}, &faulty)
	}
}

func TestFaultyActivesAndPassives(t *testing.T) {
	n, tt, s := 60, 3, 3
	// One core active, one extended active, one passive root.
	faulty := ident.NewSet(2, 23, 25)
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		run(t, n, tt, s, v, adversary.Silent{}, &faulty)
	}
}

func TestSplitBrainTransmitter(t *testing.T) {
	for _, tc := range []struct{ n, t, s int }{
		{25, 2, 2}, {60, 3, 3},
	} {
		adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(tc.n / 2)}
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg5.Protocol{S: tc.s}, N: tc.n, T: tc.t, Value: ident.V1, Adversary: adv, Seed: 9,
		}); err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
	}
}
