package core_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg4"
	"byzex/internal/protocols/alg5"
)

// TestRunAllocationBudgets pins what a whole in-memory run allocates, set-up
// included, a little above what the code reaches: the engine carries a phase
// in blocks it keeps, signer lists and decoded chains are carved from slabs,
// the scheme mints its signers once, and a payload is encoded once per
// distinct message at its exact size — Algorithm 5's activations of one block
// share it across every root with the same proof of work — so a run's
// allocations follow its phases, nodes and distinct messages, not its
// recipients. A change that allocates per recipient again shows here at once:
// before the arena the alg5 n=256, alg4 and alg1 runs made 20,039, 28,287 and
// 104 allocations; with per-root activations, per-run signers and map-backed
// passive sets they made 8,108, 2,013 and 75 (alg5 n=1024: 25,184); now they
// make 4,704, 1,880 and 64 (alg5 n=1024: 12,156).
func TestRunAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		max  float64
	}{
		{"alg5 n=256 t=3", core.Config{Protocol: alg5.Protocol{S: 3}, N: 256, T: 3, Value: ident.V1, Seed: 1}, 4950},
		{"alg5 n=1024 t=3", core.Config{Protocol: alg5.Protocol{S: 3}, N: 1024, T: 3, Value: ident.V1, Seed: 1}, 12800},
		{"alg4 m=8", core.Config{Protocol: alg4.Protocol{}, N: 64, T: 4, Adversary: adversary.Silent{}, Seed: 1}, 1975},
		{"alg1 n=5 t=2", core.Config{Protocol: alg1.Protocol{}, N: 5, T: 2, Value: ident.V1, Seed: 1}, 68},
	} {
		n := testing.AllocsPerRun(5, func() {
			if _, err := core.Run(context.Background(), tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.max {
			t.Errorf("%s: %v allocations per run, want at most %v", tc.name, n, tc.max)
		}
	}
}
