package alg1_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
)

func TestMultiFaultFreeArbitraryValues(t *testing.T) {
	for _, v := range []ident.Value{0, 1, 2, 7, -3, 1 << 30} {
		for tt := 1; tt <= 4; tt++ {
			n := 2*tt + 1
			res, got, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: alg1.MultiProtocol{}, N: n, T: tt, Value: v,
			})
			if err != nil {
				t.Fatalf("t=%d v=%v: %v", tt, v, err)
			}
			if got != v {
				t.Fatalf("t=%d: decided %v, want %v", tt, got, v)
			}
			if msgs, bound := res.Sim.Report.MessagesCorrect, alg1.MultiMsgUpperBound(tt); msgs > bound {
				t.Fatalf("t=%d: %d msgs > bound %d", tt, msgs, bound)
			}
		}
	}
}

func TestMultiTwoFacedTransmitter(t *testing.T) {
	// Equivocation between two non-binary values: the correct processors
	// converge (on one of the values or the default).
	for tt := 2; tt <= 4; tt++ {
		n := 2*tt + 1
		adv := adversary.MultiFaced{Values: []ident.Value{5, 9}}
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg1.MultiProtocol{}, N: n, T: tt, Value: 5, Adversary: adv, Seed: 1,
		}); err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
	}
}

func TestMultiThreeFacedTransmitter(t *testing.T) {
	// Three personalities: more circulating values than the relay cap —
	// everyone must land on the default together.
	tt := 3
	n := 2*tt + 1
	adv := adversary.MultiFaced{Values: []ident.Value{3, 4, 5}}
	if _, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: alg1.MultiProtocol{}, N: n, T: tt, Value: 3, Adversary: adv, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiChaosSweep(t *testing.T) {
	// A correct transmitter's 11 is owed exactly (condition (ii)).
	for seed := 0; seed < 8; seed++ {
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Value: 11,
			Adversary: adversary.Chaos{}, Seed: int64(seed),
		}); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
	}
}
