package alg5_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg5"
)

func TestAblationNoPoWStillAgrees(t *testing.T) {
	// Disabling the proof-of-work gate sacrifices the message bound, never
	// correctness.
	for _, tc := range []struct{ n, t, s int }{
		{40, 3, 3}, {100, 4, 4},
	} {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			if _, _, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: alg5.Protocol{S: tc.s, DisablePoW: true},
				N:        tc.n, T: tc.t, Value: v, Seed: 8,
			}); err != nil {
				t.Fatalf("n=%d t=%d: %v", tc.n, tc.t, err)
			}
		}
	}
}

func TestAblationNoPoWCostsMoreMessages(t *testing.T) {
	// The whole point of the proof-of-work machinery: without it, the
	// blocks below λ re-activate every subtree and the message count
	// visibly inflates.
	n, tt, s := 200, 3, 3
	run := func(disable bool) int {
		res, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg5.Protocol{S: s, DisablePoW: disable},
			N:        n, T: tt, Value: ident.V1, Seed: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Sim.Report.MessagesCorrect
	}
	with, without := run(false), run(true)
	if without <= with {
		t.Fatalf("ablation did not cost messages: with=%d without=%d", with, without)
	}
	// The gated version must stay within the paper bound; the ungated one
	// typically exceeds it (that is the ablation's finding, not a strict
	// requirement at every size).
	if bound := core.Alg5MsgUpperBound(n, tt, s); with > bound {
		t.Fatalf("gated version above bound: %d > %d", with, bound)
	}
	t.Logf("messages: with PoW %d, without %d (%.2fx)", with, without, float64(without)/float64(with))
}

func TestRushingAdversary(t *testing.T) {
	// Rushing gives the adversary intra-phase lookahead; a synchronous
	// authenticated protocol must not care.
	for _, adv := range []adversary.Adversary{
		adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 20},
		adversary.Silent{},
		adversary.Garbage{PerPhase: 4},
	} {
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg5.Protocol{S: 3}, N: 40, T: 3, Value: ident.V1,
			Adversary: adv, Seed: 4, Rushing: true,
		}); err != nil {
			t.Fatalf("%s under rushing: %v", adv.Name(), err)
		}
	}
}
