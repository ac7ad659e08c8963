package core_test

import (
	"context"
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
	"byzex/internal/runner"
)

// TestScaleLarge drives the general-n algorithms at fleet sizes to confirm
// the bounds and linear-in-n behaviour hold beyond toy systems. Skipped in
// -short mode.
func TestScaleLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	cases := []struct {
		name  string
		n, t  int
		run   func(n, tt int) (*core.Result, error)
		bound func(n, tt int) int
	}{
		{
			name: "alg3-n4096-t8",
			n:    4096, t: 8,
			run: func(n, tt int) (*core.Result, error) {
				res, _, err := core.RunAndCheck(context.Background(), core.Config{
					Protocol: alg3.Protocol{S: 4 * tt}, N: n, T: tt, Value: ident.V1, Seed: 1,
				})
				return res, err
			},
			bound: func(n, tt int) int { return core.Alg3MsgUpperBound(n, tt, 4*tt) },
		},
		{
			name: "alg5-n2048-t8",
			n:    2048, t: 8,
			run: func(n, tt int) (*core.Result, error) {
				res, _, err := core.RunAndCheck(context.Background(), core.Config{
					Protocol: alg5.Protocol{S: tt}, N: n, T: tt, Value: ident.V1, Seed: 1,
				})
				return res, err
			},
			bound: func(n, tt int) int { return core.Alg5MsgUpperBound(n, tt, tt) },
		},
		{
			// Theorem 7's regime, n ≫ t²: four times the largest benchmark
			// grid cell, an ordinary run now that set-up is linear in n.
			name: "alg5-n4096-t3",
			n:    4096, t: 3,
			run: func(n, tt int) (*core.Result, error) {
				res, _, err := core.RunAndCheck(context.Background(), core.Config{
					Protocol: alg5.Protocol{S: tt}, N: n, T: tt, Value: ident.V1, Seed: 1,
				})
				return res, err
			},
			bound: func(n, tt int) int { return core.Alg5MsgUpperBound(n, tt, tt) },
		},
	}
	// The fleet-size runs are independent and slow; execute them on the
	// pool, then assert serially.
	results, err := runner.Map(context.Background(), runner.New(0), len(cases), func(ctx context.Context, i int) (*core.Result, error) {
		return cases[i].run(cases[i].n, cases[i].t)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := results[i]
			rep := res.Sim.Report
			if got, bound := rep.MessagesCorrect, tc.bound(tc.n, tc.t); got > bound {
				t.Fatalf("%d messages > bound %d", got, bound)
			}
			if got, bound := rep.MessagesCorrect, core.MsgLowerBound(tc.n, tc.t); got < bound {
				t.Fatalf("%d messages < Theorem 2 bound %d", got, bound)
			}
			if got, bound := rep.SignaturesCorrect, core.SigLowerBound(tc.n, tc.t); got < bound {
				t.Fatalf("%d signatures < Theorem 1 bound %d", got, bound)
			}
			t.Logf("%s: %s", tc.name, res.Sim.Report.String())
		})
	}
}
