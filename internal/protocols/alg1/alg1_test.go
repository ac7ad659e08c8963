package alg1_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sig"
	"byzex/internal/trace"
)

func run(t *testing.T, tt int, v ident.Value, adv adversary.Adversary, faulty *ident.Set, faults *faultnet.Plan) *core.Result {
	t.Helper()
	n := 2*tt + 1
	res, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: alg1.Protocol{}, N: n, T: tt, Value: v,
		Adversary: adv, FaultyOverride: faulty, Faults: faults, Seed: 21,
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
		res := run(t, tt, ident.V1, nil, nil, nil)
		if got, want := res.Sim.Report.MessagesCorrect, core.Alg1MsgUpperBound(tt); got != want {
			t.Errorf("t=%d: %d msgs, want exactly %d", tt, got, want)
		}
	}
}

func TestValueZeroIsCheap(t *testing.T) {
	// With value 0 only the transmitter speaks: 2t messages.
	for tt := 1; tt <= 8; tt++ {
		res := run(t, tt, ident.V0, nil, nil, nil)
		if got := res.Sim.Report.MessagesCorrect; got != 2*tt {
			t.Errorf("t=%d: %d msgs, want %d", tt, got, 2*tt)
		}
	}
}

func TestAdversarySuite(t *testing.T) {
	for tt := 1; tt <= 5; tt++ {
		// Crashing relays are a fault-plan rule: the last t stop after phase 2.
		crash := faultnet.MustCompile(faultnet.Spec{}.WithCrash(adversary.LastNonTransmitter(2*tt+1, tt, 0), 3), 21)
		for _, f := range []struct {
			name   string
			adv    adversary.Adversary
			faults *faultnet.Plan
		}{{"silent", adversary.Silent{}, nil}, {"crash", nil, crash}, {"garbage", adversary.Garbage{PerPhase: 5}, nil}} {
			for _, v := range []ident.Value{ident.V0, ident.V1} {
				res := run(t, tt, v, f.adv, nil, f.faults)
				if got, bound := res.Sim.Report.MessagesCorrect, core.Alg1MsgUpperBound(tt); got > bound {
					t.Errorf("%s t=%d: %d > %d", f.name, tt, got, bound)
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
		run(t, tt, v, adversary.Silent{}, &faulty, nil)
	}
}

func TestForgedChainsRejected(t *testing.T) {
	// A garbage adversary that replays random bytes must never induce a
	// 1-decision in a value-0 run (forging a correct 1-message requires
	// the transmitter's signature).
	tt := 4
	res := run(t, tt, ident.V0, adversary.Garbage{PerPhase: 10}, nil, nil)
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

// TestRunEndsWhenCorrectProcessorsHalt pins early stopping: with a correct
// transmitter sending 1, every processor is done by phase 2 — the
// transmitter after its broadcast, the others once they relayed — so the run
// ends there: no phase 3 is traced and Result.Sim.EndPhase reads 2. Sending 0,
// no processor but the transmitter halts and all t+3 steps run. Either way
// the counts are those of the whole schedule, since a processor halts only
// once it would send nothing more.
func TestRunEndsWhenCorrectProcessorsHalt(t *testing.T) {
	for _, tc := range []struct {
		t          int
		v          ident.Value
		end        int
		msgs, sigs int
	}{
		{3, ident.V1, 2, 24, 42},
		{3, ident.V0, 6, 6, 6},
		{16, ident.V1, 2, 544, 1056}, // sweep-large's alg1-t16 cell
	} {
		buf := trace.NewBuffer()
		res, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg1.Protocol{}, N: 2*tc.t + 1, T: tc.t, Value: tc.v, Seed: 21, Trace: buf,
		})
		if err != nil {
			t.Fatalf("t=%d v=%v: %v", tc.t, tc.v, err)
		}
		last := 0
		for _, e := range buf.Events() {
			if e.Kind == trace.KindPhaseStart {
				last = e.Phase
			}
		}
		rep := res.Sim.Report
		if res.Sim.EndPhase != tc.end || last != tc.end || res.Phases != alg1.LastPhase(tc.t) {
			t.Errorf("t=%d v=%v: ended at phase %d, traced up to %d, scheduled %d; want %d, %d, %d",
				tc.t, tc.v, res.Sim.EndPhase, last, res.Phases, tc.end, tc.end, alg1.LastPhase(tc.t))
		}
		if rep.MessagesCorrect != tc.msgs || rep.SignaturesCorrect != tc.sigs {
			t.Errorf("t=%d v=%v: %d msgs, %d sigs; want %d, %d", tc.t, tc.v, rep.MessagesCorrect, rep.SignaturesCorrect, tc.msgs, tc.sigs)
		}
	}
}

// TestMultiNeverHalts: under the multi-valued rule a second value can still
// arrive, so an alg1-multi run steps its whole schedule.
func TestMultiNeverHalts(t *testing.T) {
	res, err := core.Run(context.Background(), core.Config{Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Value: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if want := alg1.LastPhase(3) + 1; res.Sim.EndPhase != want {
		t.Fatalf("alg1-multi ended at phase %d, want the whole schedule's %d", res.Sim.EndPhase, want)
	}
}
