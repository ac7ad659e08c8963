package core_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
	"byzex/internal/protocols/dolevstrong"
)

// TestBitFlippedMessagesRejected runs every authenticated protocol with a
// coalition that corrupts one bit in each of its (otherwise correct)
// outgoing payloads. Under an unforgeable scheme every such message must be
// rejected, so the run behaves like one with silent faults: agreement and
// validity intact for both values, across seeds.
func TestBitFlippedMessagesRejected(t *testing.T) {
	cases := []struct {
		p    protocol.Protocol
		n, t int
	}{
		{alg1.Protocol{}, 7, 3},
		{alg2.Protocol{}, 7, 3},
		{alg3.Protocol{S: 3}, 20, 2},
		{alg5.Protocol{S: 2}, 30, 2},
		{dolevstrong.Protocol{}, 8, 3},
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 4; seed++ {
			for _, v := range []ident.Value{ident.V0, ident.V1} {
				// The judge waives condition (ii) for a faulty transmitter,
				// but a flipped message is dropped like a silent one, so v
				// is owed anyway.
				_, got, err := core.RunAndCheck(context.Background(), core.Config{
					Protocol: tc.p, N: tc.n, T: tc.t, Value: v,
					Adversary: adversary.BitFlipper{}, Seed: seed,
				})
				if err != nil {
					t.Fatalf("%s seed=%d %v: %v", tc.p.Name(), seed, v, err)
				}
				if got != v {
					t.Fatalf("%s seed=%d %v: corrupted relay changed the outcome to %v", tc.p.Name(), seed, v, got)
				}
			}
		}
	}
}
