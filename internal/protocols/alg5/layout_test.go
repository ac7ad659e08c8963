package alg5

import (
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/sig"
)

func mustLayout(t *testing.T, n, tt, s int) layout {
	t.Helper()
	ly, err := newLayout(n, tt, s, false)
	if err != nil {
		t.Fatal(err)
	}
	return ly
}

func TestLayoutModes(t *testing.T) {
	if ly := mustLayout(t, 7, 3, 3); ly.mode != modeAlg2Only || ly.lastPhase != 12 {
		t.Fatalf("n=2t+1: mode %v last %d", ly.mode, ly.lastPhase)
	}
	if ly := mustLayout(t, 10, 3, 3); ly.mode != modeFanout || ly.lastPhase != 13 {
		t.Fatalf("fanout: mode %v last %d", ly.mode, ly.lastPhase)
	}
	if ly := mustLayout(t, 30, 3, 3); ly.mode != modeFull {
		t.Fatalf("full: mode %v", ly.mode)
	}
	if _, err := newLayout(4, 2, 2, false); err == nil {
		t.Fatal("n < 2t+1 accepted")
	}
	if _, err := newLayout(9, 2, 0, false); err == nil {
		t.Fatal("s=0 accepted")
	}
}

func TestScheduleContiguous(t *testing.T) {
	// Every phase from the first block to lastPhase must map to exactly
	// one (block, rel) pair, blocks in descending order, rels contiguous.
	ly := mustLayout(t, 100, 4, 4)
	phase := ly.blockStart(ly.lambda)
	for x := ly.lambda; x >= 1; x-- {
		for rel := 0; rel <= 2*treeCap(x)+2; rel++ {
			gx, grel, ok := ly.phaseToBlock(phase)
			if !ok || gx != x || grel != rel {
				t.Fatalf("phase %d: got (%d,%d,%v), want (%d,%d)", phase, gx, grel, ok, x, rel)
			}
			phase++
		}
	}
	gx, grel, ok := ly.phaseToBlock(phase)
	if !ok || gx != 0 || grel != 0 {
		t.Fatalf("block 0 at phase %d: (%d,%d,%v)", phase, gx, grel, ok)
	}
	if phase != ly.lastPhase {
		t.Fatalf("lastPhase %d != computed %d", ly.lastPhase, phase)
	}
	if _, _, ok := ly.phaseToBlock(phase + 1); ok {
		t.Fatal("phase beyond schedule mapped")
	}
	if _, _, ok := ly.phaseToBlock(ly.blockStart(ly.lambda) - 1); ok {
		t.Fatal("pre-block phase mapped")
	}
}

// TestBlockStartClosedForm checks blockStart against the loop it replaced,
// which walked the blocks down from 3t+5 adding each one's 2·treeCap(x)+3
// phases, and the schedule's length against core.Alg5Phases.
func TestBlockStartClosedForm(t *testing.T) {
	for tt := 1; tt <= 3; tt++ {
		for lambda := 1; lambda <= 20; lambda++ {
			ly := layout{t: tt, lambda: lambda}
			start := 3*tt + 5
			for x := lambda; x >= 0; x-- {
				if got := ly.blockStart(x); got != start {
					t.Fatalf("t=%d λ=%d: blockStart(%d) = %d, want %d", tt, lambda, x, got, start)
				}
				start += 2*treeCap(x) + 3
			}
		}
	}
	for s := 1; s <= 64; s++ {
		for _, tt := range []int{1, 3} {
			n := Alpha(tt) + 10
			if got, want := (Protocol{S: s}).Phases(n, tt), core.Alg5Phases(tt, s); got != want {
				t.Errorf("s=%d t=%d: Phases = %d, core.Alg5Phases = %d", s, tt, got, want)
			}
		}
	}
}

func TestValidMessagePredicate(t *testing.T) {
	ly := mustLayout(t, 30, 3, 3)
	scheme := sig.NewHMAC(30, 1)

	build := func(v ident.Value, signers ...int) sig.SignedValue {
		sv := sig.SignedValue{Value: v}
		for _, s := range signers {
			signer, _ := scheme.Signer(ident.ProcID(s))
			sv = sv.CoSign(signer)
		}
		return sv
	}
	// t+1 = 4 core-active signers: valid.
	if !ly.isValid(build(ident.V1, 0, 1, 2, 3), scheme) {
		t.Fatal("genuine valid message rejected")
	}
	// Passive signatures do not count toward the threshold.
	if ly.isValid(build(ident.V1, 0, 1, 2, 27, 28, 29), scheme) {
		t.Fatal("passive signers counted as active")
	}
	// Duplicate active signers collapse.
	if ly.isValid(build(ident.V1, 0, 0, 0, 0, 1), scheme) {
		t.Fatal("duplicate signers counted")
	}
	// Tampered value.
	sv := build(ident.V1, 0, 1, 2, 3)
	sv.Value = ident.V0
	if ly.isValid(sv, scheme) {
		t.Fatal("tampered message accepted")
	}
	// Empty chain.
	if ly.isValid(sig.SignedValue{Value: ident.V1}, scheme) {
		t.Fatal("empty chain accepted")
	}
}

// buildPiTable builds an active's table, the one over every passive, from
// strs.
func (ly *layout) buildPiTable(strs []sig.SignedBytes, index int, verifier sig.Verifier) *piTable {
	tbl := newPiTable(ly.passive(0), ly.n-len(ly.actives), ly.alpha)
	tbl.build(ly, strs, index, verifier)
	return &tbl
}

func TestPiTableAndPoW(t *testing.T) {
	ly := mustLayout(t, 60, 3, 3) // α=25, λ=2, trees of 3 over 35 passives
	scheme := sig.NewHMAC(60, 2)

	mkString := func(signer int, index int, procs ...ident.ProcID) sig.SignedBytes {
		s, _ := scheme.Signer(ident.ProcID(signer))
		return sig.NewSignedBytes(s, stringBody(new(sig.Slab), index, procs))
	}

	root := ly.forest.at(treeRef{tree: 0, pos: 0})
	leftChild := ly.forest.at(treeRef{tree: 0, pos: 1})
	_ = ly.forest.at(treeRef{tree: 0, pos: 2}) // right child, unused in the λ=2 part

	thr := ly.threshold() // 25 - 6 = 19
	if thr != 19 {
		t.Fatalf("threshold %d", thr)
	}

	// Not enough endorsements: no PoW for a depth-1 subtree.
	var strs []sig.SignedBytes
	for i := 0; i < thr-1; i++ {
		strs = append(strs, mkString(i, 1, leftChild))
	}
	tbl := ly.buildPiTable(strs, 1, scheme)
	if tbl.pi(leftChild) != thr-1 {
		t.Fatalf("pi = %d", tbl.pi(leftChild))
	}
	if ly.hasProofOfWork(tbl, treeRef{tree: 0, pos: 1}, 1) {
		t.Fatal("PoW with insufficient endorsements")
	}
	// One more endorsement flips it.
	strs = append(strs, mkString(thr-1, 1, leftChild))
	tbl = ly.buildPiTable(strs, 1, scheme)
	if !ly.hasProofOfWork(tbl, treeRef{tree: 0, pos: 1}, 1) {
		t.Fatal("PoW missing at threshold")
	}

	// Depth-2 subtrees in a λ=3 forest: the witness clause needs one
	// endorsed processor in EACH child subtree.
	ly3 := mustLayout(t, 60, 3, 7) // trees of 7; tree 0 = passives 25..31
	subRoot := treeRef{tree: 0, pos: 1}
	wLeft := ly3.forest.at(treeRef{tree: 0, pos: 3})  // left child of pos 1
	wRight := ly3.forest.at(treeRef{tree: 0, pos: 4}) // right child of pos 1
	var strs2 []sig.SignedBytes
	for i := 0; i < thr; i++ {
		strs2 = append(strs2, mkString(i, 2, wLeft, wRight))
	}
	tbl2 := ly3.buildPiTable(strs2, 2, scheme)
	if !ly3.hasProofOfWork(tbl2, subRoot, 2) {
		t.Fatal("two-witness PoW rejected")
	}
	// Only one child witnessed: rejected (unless the root itself is
	// endorsed).
	var strs3 []sig.SignedBytes
	for i := 0; i < thr; i++ {
		strs3 = append(strs3, mkString(i, 2, wLeft))
	}
	tbl3 := ly3.buildPiTable(strs3, 2, scheme)
	if ly3.hasProofOfWork(tbl3, subRoot, 2) {
		t.Fatal("single-witness PoW accepted")
	}
	// Root endorsement alone suffices.
	var strs4 []sig.SignedBytes
	for i := 0; i < thr; i++ {
		strs4 = append(strs4, mkString(i, 2, ly3.forest.at(subRoot)))
	}
	tbl4 := ly3.buildPiTable(strs4, 2, scheme)
	if !ly3.hasProofOfWork(tbl4, subRoot, 2) {
		t.Fatal("root-endorsed PoW rejected")
	}
	_ = root
	// Block λ needs no strings at all.
	empty := ly.buildPiTable(nil, ly.lambda, scheme)
	if !ly.hasProofOfWork(empty, treeRef{tree: 0, pos: 0}, ly.lambda) {
		t.Fatal("block-λ PoW not trivial")
	}
}

func TestPiTableRejectsBadStrings(t *testing.T) {
	ly := mustLayout(t, 60, 3, 3)
	scheme := sig.NewHMAC(60, 2)
	q := ly.passive(0)

	s0, _ := scheme.Signer(0)
	good := sig.NewSignedBytes(s0, stringBody(new(sig.Slab), 1, []ident.ProcID{q}))

	// Wrong index.
	wrongIdx := sig.NewSignedBytes(s0, stringBody(new(sig.Slab), 2, []ident.ProcID{q}))
	// Passive signer.
	sp, _ := scheme.Signer(q)
	passiveSigned := sig.NewSignedBytes(sp, stringBody(new(sig.Slab), 1, []ident.ProcID{q}))
	// Two links.
	s1, _ := scheme.Signer(1)
	twoLinks := good.CoSign(s1)
	// Tampered body.
	tampered := good
	tampered.Body = stringBody(new(sig.Slab), 1, []ident.ProcID{q, q + 1})

	tbl := ly.buildPiTable([]sig.SignedBytes{good, wrongIdx, passiveSigned, twoLinks, tampered}, 1, scheme)
	if tbl.pi(q) != 1 {
		t.Fatalf("pi(q) = %d, want 1 (only the good string)", tbl.pi(q))
	}
	// Same signer twice: counted once.
	dup := ly.buildPiTable([]sig.SignedBytes{good, good}, 1, scheme)
	if dup.pi(q) != 1 {
		t.Fatalf("duplicate signer counted: %d", dup.pi(q))
	}
}

func TestStringBodyRoundTrip(t *testing.T) {
	procs := []ident.ProcID{3, 99, 7}
	idx, got, err := parseStringBody(stringBody(new(sig.Slab), 5, procs), nil)
	if err != nil || idx != 5 || len(got) != 3 || got[1] != 99 {
		t.Fatalf("round trip: %d %v %v", idx, got, err)
	}
	if _, _, err := parseStringBody([]byte{0xFF}, nil); err == nil {
		t.Fatal("garbage body parsed")
	}
}

func TestAlphaMinimality(t *testing.T) {
	for tt := 1; tt <= 64; tt++ {
		a := Alpha(tt)
		if a <= 6*tt {
			t.Fatalf("Alpha(%d) = %d not > 6t", tt, a)
		}
	}
}
