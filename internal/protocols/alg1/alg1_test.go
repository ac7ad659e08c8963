package alg1_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sig"
)

func run(t *testing.T, tt int, v ident.Value, adv adversary.Adversary, faulty *ident.Set) *core.Result {
	t.Helper()
	n := 2*tt + 1
	res, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: alg1.Protocol{}, N: n, T: tt, Value: v,
		Adversary: adv, FaultyOverride: faulty, Seed: 21,
	})
	if err != nil {
		t.Fatalf("t=%d v=%v: %v", tt, v, err)
	}
	return res
}

func TestCheckRejectsWrongShape(t *testing.T) {
	p := alg1.Protocol{}
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {3, 0}, {0, 0}, {6, 3}} {
		if err := p.Check(tc.n, tc.t); err == nil {
			t.Errorf("Check(%d,%d) accepted", tc.n, tc.t)
		}
	}
	if err := p.Check(7, 3); err != nil {
		t.Errorf("Check(7,3) rejected: %v", err)
	}
}

func TestWorstCaseIsExactBound(t *testing.T) {
	// The fault-free value-1 run realizes exactly 2t²+2t messages: the
	// transmitter sends 2t and each of the 2t others relays to t.
	for tt := 1; tt <= 10; tt++ {
		res := run(t, tt, ident.V1, nil, nil)
		if got, want := res.Sim.Report.MessagesCorrect, core.Alg1MsgUpperBound(tt); got != want {
			t.Errorf("t=%d: %d msgs, want exactly %d", tt, got, want)
		}
	}
}

func TestValueZeroIsCheap(t *testing.T) {
	// With value 0 only the transmitter speaks: 2t messages.
	for tt := 1; tt <= 8; tt++ {
		res := run(t, tt, ident.V0, nil, nil)
		if got := res.Sim.Report.MessagesCorrect; got != 2*tt {
			t.Errorf("t=%d: %d msgs, want %d", tt, got, 2*tt)
		}
	}
}

func TestAdversarySuite(t *testing.T) {
	advs := []adversary.Adversary{
		adversary.Silent{},
		adversary.Crash{CrashAfter: 2},
		adversary.Garbage{PerPhase: 5},
	}
	for _, adv := range advs {
		for tt := 1; tt <= 5; tt++ {
			for _, v := range []ident.Value{ident.V0, ident.V1} {
				res := run(t, tt, v, adv, nil)
				if got, bound := res.Sim.Report.MessagesCorrect, core.Alg1MsgUpperBound(tt); got > bound {
					t.Errorf("%s t=%d: %d > %d", adv.Name(), tt, got, bound)
				}
			}
		}
	}
}

func TestSplitBrainAllSplits(t *testing.T) {
	// Condition (i) must hold for every possible audience split of the
	// equivocating transmitter.
	tt := 3
	n := 2*tt + 1
	for split := 1; split < n; split++ {
		adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(split)}
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg1.Protocol{}, N: n, T: tt, Value: ident.V1, Adversary: adv, Seed: int64(split),
		}); err != nil {
			t.Fatalf("split=%d: %v", split, err)
		}
	}
}

func TestFaultyCoalitionOnOneSide(t *testing.T) {
	// All faults on the A side: B must still converge through the
	// transmitter and the surviving A relays... with the whole A side
	// faulty (t faults), the transmitter and B are correct.
	tt := 3
	faulty := ident.NewSet(1, 2, 3) // the entire A side
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		run(t, tt, v, adversary.Silent{}, &faulty)
	}
}

func TestForgedChainsRejected(t *testing.T) {
	// A garbage adversary that replays random bytes must never induce a
	// 1-decision in a value-0 run (forging a correct 1-message requires
	// the transmitter's signature).
	tt := 4
	res := run(t, tt, ident.V0, adversary.Garbage{PerPhase: 10}, nil)
	if got, _ := res.Decision(0, ident.V0); got != ident.V0 {
		t.Fatalf("decided %v from garbage", got)
	}
}

func TestNewCoreValidation(t *testing.T) {
	scheme := sig.NewHMAC(8, 1)
	s0, _ := scheme.Signer(0)
	if _, err := alg1.NewCore(ident.Range(4), 2, 0, ident.V0, s0, scheme); err == nil {
		t.Fatal("group of 4 for t=2 accepted")
	}
	if _, err := alg1.NewCore([]ident.ProcID{0, 1, 1, 2, 3}, 2, 0, ident.V0, s0, scheme); err == nil {
		t.Fatal("duplicate group accepted")
	}
	if _, err := alg1.NewCore(ident.Range(5), 2, 7, ident.V0, s0, scheme); err == nil {
		t.Fatal("outsider accepted")
	}
}

func TestPhaseSchedule(t *testing.T) {
	p := alg1.Protocol{}
	for tt := 1; tt <= 6; tt++ {
		if got := p.Phases(2*tt+1, tt); got != tt+2 {
			t.Errorf("Phases(t=%d) = %d", tt, got)
		}
	}
}
