package lsp_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/lsp"
	"byzex/internal/sig"
)

func cfg(n, tt int, v ident.Value, adv adversary.Adversary) core.Config {
	return core.Config{
		Protocol: lsp.Protocol{}, N: n, T: tt, Value: v,
		Scheme: sig.NewPlain(n), Adversary: adv, Seed: 13,
	}
}

func TestFaultFree(t *testing.T) {
	for _, tc := range []struct{ n, t int }{
		{4, 1}, {5, 1}, {7, 2}, {10, 3}, {13, 4},
	} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			if _, _, err := core.RunAndCheck(context.Background(), cfg(tc.n, tc.t, v, nil)); err != nil {
				t.Errorf("n=%d t=%d v=%v: %v", tc.n, tc.t, v, err)
			}
		}
	}
}

func TestSilentAndCrashFaults(t *testing.T) {
	for _, tc := range []struct{ n, t int }{
		{4, 1}, {7, 2}, {10, 3},
	} {
		// Crashing processors are a fault-plan rule: the last t stop after phase 1.
		crash := faultnet.MustCompile(faultnet.Spec{}.WithCrash(adversary.LastNonTransmitter(tc.n, tc.t, 0), 2), 13)
		for _, f := range []struct {
			name   string
			adv    adversary.Adversary
			faults *faultnet.Plan
		}{{"silent", adversary.Silent{}, nil}, {"crash", nil, crash}} {
			for _, v := range []ident.Value{ident.V0, ident.V1} {
				c := cfg(tc.n, tc.t, v, f.adv)
				c.Faults = f.faults
				if _, _, err := core.RunAndCheck(context.Background(), c); err != nil {
					t.Errorf("%s n=%d t=%d v=%v: %v", f.name, tc.n, tc.t, v, err)
				}
			}
		}
	}
}

func TestSplitBrainTransmitter(t *testing.T) {
	// The classical OM(t) scenario: the transmitter lies differently to
	// different processors. All correct lieutenants must still agree.
	for _, tc := range []struct{ n, t int }{
		{4, 1}, {7, 2}, {10, 3},
	} {
		adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(tc.n / 2)}
		if _, _, err := core.RunAndCheck(context.Background(), cfg(tc.n, tc.t, ident.V1, adv)); err != nil {
			t.Fatalf("n=%d t=%d: %v", tc.n, tc.t, err)
		}
	}
}

func TestRejectsBelowRatio(t *testing.T) {
	if err := (lsp.Protocol{}).Check(6, 2); err == nil {
		t.Fatal("accepted n = 3t")
	}
	if err := (lsp.Protocol{}).Check(3, 1); err == nil {
		t.Fatal("accepted n = 3t = 3")
	}
}

func TestMessageCountAboveUnauthBound(t *testing.T) {
	// Corollary 1: any unauthenticated algorithm sends ≥ n(t+1)/4 messages
	// in some fault-free history. LSP's fault-free count must respect it.
	for _, tc := range []struct{ n, t int }{
		{4, 1}, {7, 2}, {10, 3},
	} {
		res, _, err := core.RunAndCheck(context.Background(), cfg(tc.n, tc.t, ident.V1, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got, bound := res.Sim.Report.MessagesCorrect, core.MsgLowerBoundUnauth(tc.n, tc.t); got < bound {
			t.Errorf("n=%d t=%d: %d msgs < lower bound %d", tc.n, tc.t, got, bound)
		}
	}
}
