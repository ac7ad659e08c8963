package alg4

import (
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// TestResetPoisonsKeptValuesInRaceBuilds pins the use-after-Reset check on a
// reused group: a view of what the last exchange's phases held, kept past
// Reset, reads in a race build a link by ident.None, which no scheme
// verifies, and elsewhere an empty value; Output is emptied, and the next
// exchange collects afresh.
func TestResetPoisonsKeptValuesInRaceBuilds(t *testing.T) {
	scheme := sig.NewHMAC(1, 3)
	s0, _ := scheme.Signer(0)
	gs, err := NewGroups(ident.Range(1))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := gs.New(0, []byte("first"), s0, scheme)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sim.NewContext(0, 1, 0, 0, 1, Phases, func(sim.Envelope) {})
	if err := gr.Step(ctx, nil, 0); err != nil {
		t.Fatal(err)
	}
	kept := gr.m1 // phase 1's row: our own signed value
	if len(kept) != 1 || string(kept[0].Body) != "first" || kept[0].Verify(scheme) != nil {
		t.Fatalf("phase 1 holds %+v", kept)
	}
	gr.Reset([]byte("second"))
	poisoned := len(kept[0].Chain) == 1 && kept[0].Chain[0].Signer == ident.None && kept[0].Verify(scheme) != nil
	zeroed := kept[0].Chain == nil && kept[0].Body == nil
	if poisoned != sig.Poison || zeroed == sig.Poison {
		t.Errorf("race build %v: a value kept past Reset reads %+v", sig.Poison, kept[0])
	}
	if out := gr.Output(); len(out[0].Chain) != 0 {
		t.Fatalf("a reset group still holds %+v", out[0])
	}
	if err := gr.Step(ctx, nil, 0); err != nil {
		t.Fatal(err)
	}
	if out := gr.Output(); string(out[0].Body) != "second" || out[0].Verify(scheme) != nil {
		t.Fatalf("after Reset the group holds %+v", out[0])
	}
}
