package tree_test

import (
	"testing"
	"testing/quick"

	"byzex/internal/ident"
	"byzex/internal/tree"
)

func TestLevelAndCap(t *testing.T) {
	wantLevels := []int{0, 1, 1, 2, 2, 2, 2, 3}
	for pos, want := range wantLevels {
		if got := tree.Level(pos); got != want {
			t.Errorf("Level(%d) = %d, want %d", pos, got, want)
		}
	}
	for x, want := range map[int]int{0: 0, 1: 1, 2: 3, 3: 7, 4: 15} {
		if got := tree.Cap(x); got != want {
			t.Errorf("Cap(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestLambdaFor(t *testing.T) {
	for s, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4, 16: 5} {
		if got := tree.LambdaFor(s); got != want {
			t.Errorf("LambdaFor(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestForestPartition(t *testing.T) {
	procs := ident.Range(20) // capacity 7 per tree at λ=3 -> 2 full + 1 of 6
	f, err := tree.NewForest(0, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Trees() != 3 {
		t.Fatalf("trees %d", f.Trees())
	}
	if f.TreeSize(0) != 7 || f.TreeSize(2) != 6 || f.TreeSize(3) != 0 {
		t.Fatalf("tree sizes %d/%d/%d", f.TreeSize(0), f.TreeSize(2), f.TreeSize(3))
	}
	// Locate round-trips.
	for _, p := range procs {
		ref, ok := f.Locate(p)
		if !ok {
			t.Fatalf("%v not located", p)
		}
		if f.At(ref) != p {
			t.Fatalf("At(Locate(%v)) = %v", p, f.At(ref))
		}
	}
	if _, ok := f.Locate(99); ok {
		t.Fatal("located a stranger")
	}
}

func TestForestRejectsBadInput(t *testing.T) {
	if _, err := tree.NewForest(0, 3, 0); err == nil {
		t.Fatal("lambda 0 accepted")
	}
	if _, err := tree.NewForest(0, -1, 2); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := tree.NewForest(ident.None, 3, 2); err == nil {
		t.Fatal("negative first id accepted")
	}
}

// subtree returns the positions of the subtree of tree 0 rooted at pos; with
// First = 0 and a single tree, ids are positions.
func subtree(f tree.Forest, pos int) []ident.ProcID {
	return f.SubtreeMembers(tree.Ref{Tree: 0, Pos: pos})
}

func TestChildrenAndSubtree(t *testing.T) {
	f, _ := tree.NewForest(0, 7, 3)
	// The level below a position holds its children.
	if first, n := f.SubtreeLevel(tree.Ref{Pos: 0}, 1); n != 2 || first != 1 {
		t.Fatalf("children(0) = %d from %v", n, first)
	}
	if _, n := f.SubtreeLevel(tree.Ref{Pos: 3}, 1); n != 0 {
		t.Fatalf("leaf children = %d", n)
	}
	sub := subtree(f, 1)
	want := []ident.ProcID{1, 3, 4}
	if len(sub) != 3 {
		t.Fatalf("subtree(1) = %v", sub)
	}
	for i := range want {
		if sub[i] != want[i] {
			t.Fatalf("subtree(1) = %v, want %v", sub, want)
		}
	}
	if whole := subtree(f, 0); len(whole) != 7 {
		t.Fatalf("whole subtree %d", len(whole))
	}
	if subtree(f, 99) != nil {
		t.Fatal("subtree of missing position")
	}
}

func TestTruncatedSubtree(t *testing.T) {
	f, _ := tree.NewForest(0, 5, 3)          // positions 0..4
	if sub := subtree(f, 1); len(sub) != 3 { // 1,3,4
		t.Fatalf("subtree(1) = %v", sub)
	}
	if sub := subtree(f, 2); len(sub) != 1 { // 2 alone: 5,6 missing
		t.Fatalf("subtree(2) = %v", sub)
	}
}

func TestRootsOfDepth(t *testing.T) {
	f, _ := tree.NewForest(0, 14, 3) // two trees of 7
	if roots := f.RootsOfDepth(3); len(roots) != 2 {
		t.Fatalf("depth-3 roots %d", len(roots))
	}
	if roots := f.RootsOfDepth(2); len(roots) != 4 {
		t.Fatalf("depth-2 roots %d", len(roots))
	}
	if roots := f.RootsOfDepth(1); len(roots) != 8 {
		t.Fatalf("depth-1 roots (leaves) %d", len(roots))
	}
	if f.RootsOfDepth(0) != nil || f.RootsOfDepth(4) != nil {
		t.Fatal("out-of-range depths")
	}
}

func TestBlockRoot(t *testing.T) {
	f, _ := tree.NewForest(0, 7, 3)
	// Tree: 0 at level 0; 1,2 level 1; 3..6 level 2.
	// Block 3 (depth-3 subtrees): root is position 0 for everyone.
	for _, q := range ident.Range(7) {
		root, ok := f.BlockRoot(q, 3)
		if !ok || root != 0 {
			t.Fatalf("BlockRoot(%v, 3) = %v, %v", q, root, ok)
		}
	}
	// Block 2: level-1 ancestors.
	if r, ok := f.BlockRoot(3, 2); !ok || r != 1 {
		t.Fatalf("BlockRoot(3,2) = %v", r)
	}
	if r, ok := f.BlockRoot(6, 2); !ok || r != 2 {
		t.Fatalf("BlockRoot(6,2) = %v", r)
	}
	// A node above the block level has no block root.
	if _, ok := f.BlockRoot(0, 2); ok {
		t.Fatal("root has a block-2 root")
	}
	if _, ok := f.BlockRoot(0, 1); ok {
		t.Fatal("root has a block-1 root")
	}
	// Leaves are their own block-1 roots.
	if r, ok := f.BlockRoot(4, 1); !ok || r != 4 {
		t.Fatalf("BlockRoot(4,1) = %v", r)
	}
	if _, ok := f.BlockRoot(99, 1); ok {
		t.Fatal("stranger has a block root")
	}
}

func TestSubtreeMembersOrder(t *testing.T) {
	f, _ := tree.NewForest(0, 7, 3)
	members := f.SubtreeMembers(tree.Ref{Tree: 0, Pos: 0})
	if len(members) != 7 || members[0] != 0 {
		t.Fatalf("members %v", members)
	}
	// BFS order: root, its children, then grandchildren.
	want := []ident.ProcID{0, 1, 2, 3, 4, 5, 6}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("members %v", members)
		}
	}
}

func TestQuickPartitionComplete(t *testing.T) {
	// Property: every processor appears in exactly one tree at a valid
	// position, trees respect the capacity, and Subtree(0) enumerates each
	// tree completely.
	f := func(nRaw, lamRaw uint8) bool {
		n := int(nRaw)%60 + 1
		lam := int(lamRaw)%4 + 1
		forest, err := tree.NewForest(0, n, lam)
		if err != nil {
			return false
		}
		seen := make(ident.Set)
		capacity := tree.Cap(lam)
		for ti := 0; ti < forest.Trees(); ti++ {
			if forest.TreeSize(ti) > capacity {
				return false
			}
			if ti < forest.Trees()-1 && forest.TreeSize(ti) != capacity {
				return false // only the last tree may be short
			}
			for _, id := range forest.SubtreeMembers(tree.Ref{Tree: ti, Pos: 0}) {
				if !seen.Add(id) {
					return false
				}
			}
		}
		return seen.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBlockRootIsAncestorAtRightLevel(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		forest, err := tree.NewForest(0, n, 3)
		if err != nil {
			return false
		}
		for _, q := range ident.Range(n) {
			ref, _ := forest.Locate(q)
			for x := 1; x <= 3; x++ {
				root, ok := forest.BlockRoot(q, x)
				if tree.Level(ref.Pos) < 3-x {
					if ok {
						return false
					}
					continue
				}
				if !ok {
					return false
				}
				rootRef, _ := forest.Locate(root)
				if rootRef.Tree != ref.Tree || tree.Level(rootRef.Pos) != 3-x {
					return false
				}
				// root's subtree must contain q.
				found := false
				for _, m := range forest.SubtreeMembers(rootRef) {
					if m == q {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refForest is the map-built forest the arithmetic one replaced, kept as the
// reference of TestArithmeticForestMatchesMapBuilt: member lists copied per
// tree, a locate map, and a queue-driven BFS.
type refForest struct {
	lambda int
	trees  [][]ident.ProcID
	locate map[ident.ProcID]tree.Ref
}

func newRefForest(procs []ident.ProcID, lambda int) *refForest {
	f := &refForest{lambda: lambda, locate: make(map[ident.ProcID]tree.Ref, len(procs))}
	for s := tree.Cap(lambda); len(procs) > 0; {
		k := min(s, len(procs))
		for pos, id := range procs[:k] {
			f.locate[id] = tree.Ref{Tree: len(f.trees), Pos: pos}
		}
		f.trees = append(f.trees, append([]ident.ProcID(nil), procs[:k]...))
		procs = procs[k:]
	}
	return f
}

func (f *refForest) rootsOfDepth(x int) []tree.Ref {
	if x < 1 || x > f.lambda {
		return nil
	}
	lo, hi := tree.Cap(f.lambda-x), tree.Cap(f.lambda-x+1)
	var out []tree.Ref
	for ti, tr := range f.trees {
		for pos := lo; pos < hi && pos < len(tr); pos++ {
			out = append(out, tree.Ref{Tree: ti, Pos: pos})
		}
	}
	return out
}

func (f *refForest) subtreeMembers(r tree.Ref) []ident.ProcID {
	tr := f.trees[r.Tree]
	if r.Pos >= len(tr) {
		return nil
	}
	queue := []int{r.Pos}
	var out []ident.ProcID
	for i := 0; i < len(queue); i++ {
		out = append(out, tr[queue[i]])
		for _, c := range []int{2*queue[i] + 1, 2*queue[i] + 2} {
			if c < len(tr) {
				queue = append(queue, c)
			}
		}
	}
	return out
}

func (f *refForest) blockRoot(q ident.ProcID, x int) (ident.ProcID, bool) {
	r, ok := f.locate[q]
	if !ok {
		return ident.None, false
	}
	pos := r.Pos
	for tree.Level(pos) > f.lambda-x {
		pos = (pos - 1) / 2
	}
	if tree.Level(pos) != f.lambda-x {
		return ident.None, false
	}
	return f.trees[r.Tree][pos], true
}

// TestArithmeticForestMatchesMapBuilt checks every query of the arithmetic
// forest against the map-built reference, for every (count, λ) with
// count ≤ 300 and λ ≤ 6 — which includes empty forests, single trees and
// every length of short last tree — over an id range that does not start at 0.
func TestArithmeticForestMatchesMapBuilt(t *testing.T) {
	const first = ident.ProcID(25)
	eq := func(a, b []ident.ProcID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for lam := 1; lam <= 6; lam++ {
		for count := 0; count <= 300; count++ {
			procs := make([]ident.ProcID, count)
			for i := range procs {
				procs[i] = first + ident.ProcID(i)
			}
			ref := newRefForest(procs, lam)
			f, err := tree.NewForest(first, count, lam)
			if err != nil {
				t.Fatal(err)
			}
			if f.Trees() != len(ref.trees) {
				t.Fatalf("count=%d λ=%d: %d trees, want %d", count, lam, f.Trees(), len(ref.trees))
			}
			for id := first - 2; id < first+ident.ProcID(count)+2; id++ {
				got, ok := f.Locate(id)
				want, wantOK := ref.locate[id]
				if ok != wantOK || got != want {
					t.Fatalf("count=%d λ=%d: Locate(%v) = %v,%v want %v,%v", count, lam, id, got, ok, want, wantOK)
				}
				if !ok {
					continue
				}
				if f.At(got) != id {
					t.Fatalf("count=%d λ=%d: At(%v) = %v want %v", count, lam, got, f.At(got), id)
				}
				members := f.SubtreeMembers(got)
				if want := ref.subtreeMembers(got); !eq(members, want) {
					t.Fatalf("count=%d λ=%d: SubtreeMembers(%v) = %v want %v", count, lam, got, members, want)
				}
				for i, m := range members {
					mr, _ := f.Locate(m)
					if tree.WalkIndex(got.Pos, mr.Pos) != i {
						t.Fatalf("count=%d λ=%d: WalkIndex(%d,%d) = %d want %d", count, lam, got.Pos, mr.Pos, tree.WalkIndex(got.Pos, mr.Pos), i)
					}
				}
				inSub := ident.NewSet(members...)
				for _, q := range procs[got.Tree*tree.Cap(lam) : got.Tree*tree.Cap(lam)+f.TreeSize(got.Tree)] {
					if f.InSubtree(got, q) != inSub.Has(q) {
						t.Fatalf("count=%d λ=%d: InSubtree(%v,%v) = %v", count, lam, got, q, !inSub.Has(q))
					}
				}
				for x := 1; x <= lam; x++ {
					gr, gok := f.BlockRoot(id, x)
					wr, wok := ref.blockRoot(id, x)
					if gok != wok || gr != wr {
						t.Fatalf("count=%d λ=%d: BlockRoot(%v,%d) = %v,%v want %v,%v", count, lam, id, x, gr, gok, wr, wok)
					}
				}
			}
			for x := 0; x <= lam+1; x++ {
				got, want := f.RootsOfDepth(x), ref.rootsOfDepth(x)
				if len(got) != len(want) {
					t.Fatalf("count=%d λ=%d: %d depth-%d roots, want %d", count, lam, len(got), x, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("count=%d λ=%d: depth-%d root %d = %v want %v", count, lam, x, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSubtreeWalkAllocations(t *testing.T) {
	f, _ := tree.NewForest(25, 1000, 5)
	root := tree.Ref{Tree: 3, Pos: 1}
	if n := testing.AllocsPerRun(100, func() {
		for d := 0; ; d++ {
			if _, n := f.SubtreeLevel(root, d); n == 0 {
				break
			}
		}
		f.InSubtree(root, 130)
		f.BlockRoot(130, 2)
	}); n != 0 {
		t.Fatalf("level walk allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { f.SubtreeMembers(root) }); n != 1 {
		t.Fatalf("SubtreeMembers allocates %v times, want 1 (its result)", n)
	}
}
