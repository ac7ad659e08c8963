package sig

import (
	"testing"

	"byzex/internal/ident"
)

// TestRewindPoisonsInRaceBuilds pins the use-after-Rewind check: in a race
// build the links handed back are overwritten at once, so a chain kept past
// its Rewind no longer verifies; elsewhere Rewind only moves the mark.
func TestRewindPoisonsInRaceBuilds(t *testing.T) {
	s := NewHMAC(3, 1)
	s0, _ := s.Signer(0)
	enc := NewSignedValue(s0, ident.V1).Marshal()
	var slab Slab
	mark := slab.Mark()
	kept, err := slab.Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	slab.Rewind(mark)
	verr := kept.Verify(s)
	if poisoned := kept.Chain[0].Signer == ident.None && kept.Chain[0].Sig == nil; poisoned != raceEnabled || (verr == nil) == raceEnabled {
		t.Errorf("race build %v: link after Rewind is %+v, verify %v", raceEnabled, kept.Chain[0], verr)
	}
}
