package core_test

import (
	"context"
	"runtime"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
)

// TestColdRunsRetainNothing pins that the blocks a run's builder carves its
// processors' state from belong to that run alone: once its Result is
// dropped, nothing of a cold run stays reachable, so the live heap after a
// collection is the same after 32 runs of each configuration as after 4. A
// block shared across runs — a chunk handed from one run's builder to the
// next — would keep every run whose nodes it holds alive, with their slabs,
// verifier and engine. alg1 under SplitBrain builds two inner nodes for its
// corrupted transmitter, so its node block runs out and a second is started.
func TestColdRunsRetainNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own bookkeeping moves the live heap")
	}
	cfgs := []core.Config{
		{Protocol: alg5.Protocol{S: 3}, N: 256, T: 3, Value: ident.V1, Seed: 1},
		{Protocol: alg3.Protocol{S: 8}, N: 256, T: 4, Value: ident.V1, Seed: 1},
		{Protocol: alg1.Protocol{}, N: 5, T: 2, Value: ident.V1, Seed: 1,
			Adversary: adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 3}},
	}
	liveAfter := func(k int) uint64 {
		for range k {
			for _, cfg := range cfgs {
				if _, err := core.Run(context.Background(), cfg); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	few, many := liveAfter(4), liveAfter(32)
	if many > few+1<<20 {
		t.Errorf("live heap %d KB after 32 runs of each configuration, %d KB after 4: runs are kept past their results", many>>10, few>>10)
	}
	t.Logf("live heap after 4 runs of each: %d KB, after 32: %d KB", few>>10, many>>10)
}
