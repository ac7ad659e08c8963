package core_test

import (
	"runtime"
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
)

// setupCost measures one NewSetup: heap objects and bytes allocated.
func setupCost(t *testing.T, cfg core.Config) (objects, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	setup, err := core.NewSetup(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(setup)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestSetupLinearInN pins what Theorem 7's O(n + t²) needs from the code
// before the first message: preparing a run of the general-n algorithms
// allocates a few dozen objects whatever n is — the run's builder carves
// every kind of per-processor state from one block sized to the run, and the
// scheme mints its signers when it is built; before that it was about three
// per processor for alg5 and two for alg3 — and four times the processors
// cost about four times the bytes — not sixteen, as when every node built
// its own n-entry partition of the passive processors.
func TestSetupLinearInN(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() core.Config
	}{
		{"alg5", func() core.Config { return core.Config{Protocol: alg5.Protocol{S: 3}, T: 3, Value: ident.V1, Seed: 1} }},
		{"alg3", func() core.Config { return core.Config{Protocol: alg3.Protocol{S: 12}, T: 3, Value: ident.V1, Seed: 1} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, large := tc.cfg(), tc.cfg()
			small.N, large.N = 1024, 4096
			objs, smallBytes := setupCost(t, small)
			if objs > 32 {
				t.Errorf("n=%d: %d objects, want at most 32: a block per kind, none per processor", small.N, objs)
			}
			_, largeBytes := setupCost(t, large)
			if ratio := float64(largeBytes) / float64(smallBytes); ratio > 5 {
				t.Errorf("n=%d allocates %d bytes, %.1f× the %d of n=%d, want about 4×", large.N, largeBytes, ratio, smallBytes, small.N)
			}
			t.Logf("n=%d: %d objects, %d bytes; n=%d: %d bytes", small.N, objs, smallBytes, large.N, largeBytes)
		})
	}
}
