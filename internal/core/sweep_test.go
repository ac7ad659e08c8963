package core_test

import (
	"context"
	"fmt"
	"strings"
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
	"byzex/internal/protocols/lsp"
	"byzex/internal/runner"
	"byzex/internal/sig"
)

// TestExhaustiveSplitPointsAlg2 drives the split-brain transmitter through
// every audience split for Algorithm 2.
func TestExhaustiveSplitPointsAlg2(t *testing.T) {
	const tt = 3
	n := 2*tt + 1
	for split := 0; split <= n; split++ {
		adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(split)}
		if _, _, err := core.RunAndCheck(context.Background(), core.Config{
			Protocol: alg2.Protocol{}, N: n, T: tt, Value: ident.V1,
			Adversary: adv, Seed: int64(split),
		}); err != nil {
			t.Fatalf("split=%d: %v", split, err)
		}
	}
}

// TestChaosSweep runs every protocol under the randomized chaos adversary
// across many seeds: agreement must hold for every seed, both with and
// without rushing.
func TestChaosSweep(t *testing.T) {
	cases := []struct {
		p    protocol.Protocol
		n, t int
	}{
		{alg1.Protocol{}, 7, 3},
		{alg2.Protocol{}, 7, 3},
		{alg3.Protocol{S: 3}, 20, 2},
		{alg5.Protocol{S: 2}, 30, 2},
		{dolevstrong.Protocol{}, 8, 3},
		{lsp.Protocol{}, 7, 2},
	}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	// Flatten (case, seed, rushing) into independent pool jobs.
	perCase := seeds * 2
	_, err := runner.Map(context.Background(), runner.New(0), len(cases)*perCase, func(ctx context.Context, i int) (struct{}, error) {
		tc := cases[i/perCase]
		seed := (i % perCase) / 2
		rushing := i%2 == 1
		_, _, err := core.RunAndCheck(ctx, core.Config{
			Protocol: tc.p, N: tc.n, T: tc.t, Value: ident.V1,
			Adversary: adversary.Chaos{}, Seed: int64(seed), Rushing: rushing,
		})
		if err != nil {
			return struct{}{}, fmt.Errorf("%s seed=%d rushing=%v: %w", tc.p.Name(), seed, rushing, err)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRunsIdentical runs the same configuration many times
// concurrently through the pool (exercising the per-run signature cache and
// the engine's buffer recycling under -race) and requires every run to
// produce the identical report — parallel execution must not perturb
// deterministic runs.
func TestConcurrentRunsIdentical(t *testing.T) {
	const copies = 16
	reports, err := runner.Map(context.Background(), runner.New(8), copies, func(ctx context.Context, i int) (string, error) {
		res, err := core.Run(ctx, core.Config{
			Protocol: alg2.Protocol{}, N: 9, T: 4, Value: ident.V1,
			Adversary: adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 4},
			Seed:      7, Rushing: true,
		})
		if err != nil {
			return "", err
		}
		return res.Sim.Report.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < copies; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, reports[i], reports[0])
		}
	}
	if h := reports[0]; !strings.Contains(h, "sigcache=") {
		t.Fatalf("report missing sigcache counters: %s", h)
	}
}

// TestMultiValuedAgreement: the value-generic protocols must agree on
// values outside {0, 1} (the paper notes the binary restriction is only
// for the lower-bound proofs).
func TestMultiValuedAgreement(t *testing.T) {
	for _, v := range []ident.Value{2, 5, 42, -17, 1 << 40} {
		for _, tc := range []struct {
			p    protocol.Protocol
			n, t int
		}{
			{dolevstrong.Protocol{}, 7, 2},
			{lsp.Protocol{}, 7, 2},
		} {
			res, got, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: tc.p, N: tc.n, T: tc.t, Value: v, Scheme: schemeFor(tc.p, tc.n),
			})
			if err != nil {
				t.Fatalf("%s v=%v: %v", tc.p.Name(), v, err)
			}
			if got != v {
				t.Fatalf("%s: decided %v, want %v", tc.p.Name(), got, v)
			}
			_ = res
		}
	}
}

func schemeFor(p protocol.Protocol, n int) sig.Scheme {
	if p.Name() == "lsp-om" {
		return sig.NewPlain(n)
	}
	return nil
}

// TestMultiValuedUnderSplitBrain: a transmitter equivocating between two
// non-binary values still yields agreement (on one of them or the
// default).
func TestMultiValuedUnderSplitBrain(t *testing.T) {
	adv := adversary.SplitBrain{LowValue: 7, HighValue: 9, SplitAt: 4}
	if _, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: dolevstrong.Protocol{}, N: 8, T: 2, Value: 9, Adversary: adv,
	}); err != nil {
		t.Fatal(err)
	}
}
