package sig

import (
	"slices"
	"testing"

	"byzex/internal/ident"
)

// TestBlocksCarveFromSizedBlocks pins the one block rule: the first block
// holds exactly what the blocks were made for, allocated once; each carved
// slice is capped so appending to it never reaches a neighbour; later blocks
// double up to the cap — a run's blocks, first sized to the run and capped at
// protocol.Overflow, drop to that cap at once — and a carve too large for the
// next block and the cap gets a block of its own while the current block
// carries on.
func TestBlocksCarveFromSizedBlocks(t *testing.T) {
	b := NewBlocks[int](6, 8)
	var first, second []int
	var one *int
	if n := testing.AllocsPerRun(1, func() {
		b = NewBlocks[int](6, 8)
		first, second, one = b.Carve(2), b.Carve(3), &b.Carve(1)[0]
	}); n != 1 {
		t.Fatalf("carving the first block's six values allocated %v times, want once", n)
	}
	*one = 7
	if len(first) != 2 || cap(first) != 2 || len(second) != 3 || cap(second) != 3 {
		t.Fatalf("carved len/cap %d/%d and %d/%d, want 2/2 and 3/3", len(first), cap(first), len(second), cap(second))
	}
	_ = append(first, 9)
	if second[0] != 0 {
		t.Fatal("appending to a carved slice wrote its neighbour")
	}
	if more := b.Carve(1); len(b.block) != 8 || more[0] != 0 {
		t.Fatalf("the block after a run-sized one holds %d, want the cap 8", len(b.block))
	}

	b = NewBlocks[int](2, 16)
	var sizes []int
	for range 2 + 4 + 8 + 16 + 16 {
		if b.Carve(1); b.used == 1 {
			sizes = append(sizes, len(b.block))
		}
	}
	if want := []int{2, 4, 8, 16, 16}; !slices.Equal(sizes, want) {
		t.Fatalf("blocks of %v, want %v", sizes, want)
	}
	block, used := &b.block[0], b.used
	if big := b.Carve(17); len(big) != 17 || cap(big) != 17 || &b.block[0] != block || b.used != used {
		t.Fatalf("an oversize carve got len/cap %d/%d and moved the current block", len(big), cap(big))
	}
	b = NewBlocks[int](2, 16)
	if b.Carve(5); len(b.block) != 5 || b.next != 10 {
		t.Fatalf("a carve of 5 past a first block of 2 started a block of %d and then %d, want 5 and 10", len(b.block), b.next)
	}
}

// TestBlocksRewindPoisonsInRaceBuilds: whatever the kind, values handed back
// by Rewind read the owner's poison at once in a race build and are left as
// they were elsewhere, and they are carved again.
func TestBlocksRewindPoisonsInRaceBuilds(t *testing.T) {
	ints := NewBlocks[int](4, 4)
	mark := ints.Mark()
	kept := ints.Carve(3)
	kept[0], kept[1], kept[2] = 1, 2, 3
	ints.Rewind(mark, -1)
	if want := map[bool][]int{true: {-1, -1, -1}, false: {1, 2, 3}}[raceEnabled]; !slices.Equal(kept, want) {
		t.Errorf("race build %v: ints after Rewind read %v, want %v", raceEnabled, kept, want)
	}
	if again := ints.Carve(3); &again[0] != &kept[0] {
		t.Error("rewound ints were not carved again")
	}

	links := NewBlocks[Link](4, 4)
	mark = links.Mark()
	chain := links.Carve(2)
	chain[0], chain[1] = Link{Signer: 1, Sig: []byte{1}}, Link{Signer: 2, Sig: []byte{2}}
	links.Rewind(mark, poisonedLink)
	for i, l := range chain {
		if poisoned := l.Signer == ident.None && l.Sig == nil; poisoned != raceEnabled {
			t.Errorf("race build %v: link %d after Rewind is %+v", raceEnabled, i, l)
		}
	}
}
