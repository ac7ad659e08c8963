package core_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg4"
	"byzex/internal/protocols/alg5"
	"byzex/internal/sig"
)

// TestRunAllocationBudgets pins what a whole in-memory run allocates, set-up
// included, a little above what the code reaches: the engine carries a phase
// in blocks it keeps, every part of a message — chain links, signature bytes,
// payload encodings, signer lists — is carved from the slab the engine hands
// its nodes, the scheme mints its signers once, and a payload is encoded once
// per distinct message — Algorithm 5's activations of one block share it
// across every root with the same proof of work — and a run's builder carves
// its processors' state from one block per kind, so a run's allocations
// follow its phases and blocks, not its processors, messages or recipients.
// A change that allocates per processor, message or recipient again shows
// here at once: before the arena the alg5 n=256, alg4 and alg1 runs made 20,039,
// 28,287 and 104 allocations; with per-root activations, per-run signers and
// map-backed passive sets they made 8,108, 2,013 and 75 (alg5 n=1024:
// 25,184); with signer lists and decoded chains carved they made 4,704, 1,880
// and 64 (alg5 n=1024: 12,156; a warm alg1 instance 41, alg2 t=16 3,445,
// alg3 s=32 3,284); with whole messages carved from one slab per stepping
// goroutine they made 2,395, 1,010 and 44 (alg5 n=1024: 5,045; warm alg1 18,
// alg2 t=16 343, alg3 s=32 1,147, s=2 1,190); with π tables, vote tallies,
// send lists and sets indexed by processor id they made 603, 403 and 42
// (alg5 n=1024: 1,462; warm alg1 16, alg2 t=16 341, alg3 s=32 390, s=2 363);
// with every kind of per-processor state carved from one block per run, the
// alg2 send lists taken as views of the group and the verified-prefix index
// sized to n they make 142, 104 and 35 (alg5 n=1024: 228; warm alg1 9, warm
// alg1-multi n=7 9 (20 before), alg2 t=16 128, alg3 s=32 103, s=2 81, alg5
// n=256 under SplitBrain 332 (770 before)); with each adversary's send filter
// built once per run and re-pointed per phase, and Algorithm 5's activation
// scratch kept on the active node, alg5 n=256 makes 119 (n=1024 204, under
// SplitBrain 137). The warm rows are served
// instances: one core.Runner and one scheme across instances, as a shard
// runs them — alg1-multi n=7 is the durable-batch template. The SplitBrain
// row builds two inner nodes for the transmitter, one past the first active
// block. make allocs lists where they are.
func TestRunAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		warm bool // one core.Runner runs every instance, as a served shard does
		max  float64
	}{
		{"alg5 n=256 t=3", core.Config{Protocol: alg5.Protocol{S: 3}, N: 256, T: 3, Value: ident.V1, Seed: 1}, false, 130},
		{"alg5 n=1024 t=3", core.Config{Protocol: alg5.Protocol{S: 3}, N: 1024, T: 3, Value: ident.V1, Seed: 1}, false, 220},
		{"alg5 n=256 t=3 split-brain", core.Config{Protocol: alg5.Protocol{S: 3}, N: 256, T: 3, Value: ident.V1, Adversary: adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 128}, Seed: 1}, false, 150},
		{"alg4 m=8", core.Config{Protocol: alg4.Protocol{}, N: 64, T: 4, Adversary: adversary.Silent{}, Seed: 1}, false, 112},
		{"alg1 n=5 t=2", core.Config{Protocol: alg1.Protocol{}, N: 5, T: 2, Value: ident.V1, Seed: 1}, false, 37},
		{"alg1 n=5 t=2 warm", core.Config{Protocol: alg1.Protocol{}, N: 5, T: 2, Value: ident.V1, Scheme: sig.NewHMAC(5, 1), Seed: 1}, true, 10},
		{"alg1-multi n=7 t=3 warm", core.Config{Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Value: 42, Scheme: sig.NewHMAC(7, 1), Seed: 1}, true, 10},
		{"alg2 t=16", core.Config{Protocol: alg2.Protocol{}, N: 33, T: 16, Value: ident.V1, Seed: 1}, false, 140},
		{"alg3 s=32", core.Config{Protocol: alg3.Protocol{S: 32}, N: 256, T: 4, Value: ident.V1, Seed: 1}, false, 115},
		{"alg3 n=256 t=4 s=2", core.Config{Protocol: alg3.Protocol{S: 2}, N: 256, T: 4, Value: ident.V1, Seed: 1}, false, 92},
	} {
		run := core.Run
		if tc.warm {
			run = new(core.Runner).Run
		}
		n := testing.AllocsPerRun(5, func() {
			if _, err := run(context.Background(), tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.max {
			t.Errorf("%s: %v allocations per run, want at most %v", tc.name, n, tc.max)
		}
	}
}
