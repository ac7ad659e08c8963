package alg5

import (
	"testing"
	"testing/quick"

	"byzex/internal/ident"
)

func TestLevelAndCap(t *testing.T) {
	wantLevels := []int{0, 1, 1, 2, 2, 2, 2, 3}
	for pos, want := range wantLevels {
		if got := level(pos); got != want {
			t.Errorf("level(%d) = %d, want %d", pos, got, want)
		}
	}
	for x, want := range map[int]int{0: 0, 1: 1, 2: 3, 3: 7, 4: 15} {
		if got := treeCap(x); got != want {
			t.Errorf("treeCap(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestLambdaFor(t *testing.T) {
	for s, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 15: 4, 16: 5} {
		if got := lambdaFor(s); got != want {
			t.Errorf("lambdaFor(%d) = %d, want %d", s, got, want)
		}
	}
}

func TestForestPartition(t *testing.T) {
	procs := ident.Range(20) // capacity 7 per tree at λ=3 -> 2 full + 1 of 6
	f := forest{first: 0, count: 20, lambda: 3}
	if f.size(0) != 7 || f.size(2) != 6 || f.size(3) != 0 {
		t.Fatalf("tree sizes %d/%d/%d", f.size(0), f.size(2), f.size(3))
	}
	// locate round-trips.
	for _, p := range procs {
		ref, ok := f.locate(p)
		if !ok {
			t.Fatalf("%v not located", p)
		}
		if f.at(ref) != p {
			t.Fatalf("at(locate(%v)) = %v", p, f.at(ref))
		}
	}
	if _, ok := f.locate(99); ok {
		t.Fatal("located a stranger")
	}
}

// subtree returns the positions of the subtree of tree 0 rooted at pos; with
// first = 0 and a single tree, ids are positions.
func subtree(f forest, pos int) []ident.ProcID {
	return f.subtreeMembers(treeRef{tree: 0, pos: pos})
}

func TestChildrenAndSubtree(t *testing.T) {
	f := forest{first: 0, count: 7, lambda: 3}
	// The level below a position holds its children.
	if first, n := f.subtreeLevel(treeRef{pos: 0}, 1); n != 2 || first != 1 {
		t.Fatalf("children(0) = %d from %v", n, first)
	}
	if _, n := f.subtreeLevel(treeRef{pos: 3}, 1); n != 0 {
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
	f := forest{first: 0, count: 5, lambda: 3} // positions 0..4
	if sub := subtree(f, 1); len(sub) != 3 {   // 1,3,4
		t.Fatalf("subtree(1) = %v", sub)
	}
	if sub := subtree(f, 2); len(sub) != 1 { // 2 alone: 5,6 missing
		t.Fatalf("subtree(2) = %v", sub)
	}
}

func TestRootsOfDepth(t *testing.T) {
	f := forest{first: 0, count: 14, lambda: 3} // two trees of 7
	if roots := f.rootsOfDepth(3); len(roots) != 2 {
		t.Fatalf("depth-3 roots %d", len(roots))
	}
	if roots := f.rootsOfDepth(2); len(roots) != 4 {
		t.Fatalf("depth-2 roots %d", len(roots))
	}
	if roots := f.rootsOfDepth(1); len(roots) != 8 {
		t.Fatalf("depth-1 roots (leaves) %d", len(roots))
	}
	if f.rootsOfDepth(0) != nil || f.rootsOfDepth(4) != nil {
		t.Fatal("out-of-range depths")
	}
}

func TestBlockRoot(t *testing.T) {
	f := forest{first: 0, count: 7, lambda: 3}
	// Tree: 0 at level 0; 1,2 level 1; 3..6 level 2.
	// Block 3 (depth-3 subtrees): root is position 0 for everyone.
	for _, q := range ident.Range(7) {
		root, ok := f.blockRoot(q, 3)
		if !ok || root != 0 {
			t.Fatalf("blockRoot(%v, 3) = %v, %v", q, root, ok)
		}
	}
	// Block 2: level-1 ancestors.
	if r, ok := f.blockRoot(3, 2); !ok || r != 1 {
		t.Fatalf("blockRoot(3,2) = %v", r)
	}
	if r, ok := f.blockRoot(6, 2); !ok || r != 2 {
		t.Fatalf("blockRoot(6,2) = %v", r)
	}
	// A node above the block level has no block root.
	if _, ok := f.blockRoot(0, 2); ok {
		t.Fatal("root has a block-2 root")
	}
	if _, ok := f.blockRoot(0, 1); ok {
		t.Fatal("root has a block-1 root")
	}
	// Leaves are their own block-1 roots.
	if r, ok := f.blockRoot(4, 1); !ok || r != 4 {
		t.Fatalf("blockRoot(4,1) = %v", r)
	}
	if _, ok := f.blockRoot(99, 1); ok {
		t.Fatal("stranger has a block root")
	}
}

func TestSubtreeMembersOrder(t *testing.T) {
	f := forest{first: 0, count: 7, lambda: 3}
	members := f.subtreeMembers(treeRef{tree: 0, pos: 0})
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
	// position, trees respect the capacity, and subtreeMembers of each root
	// enumerates its tree completely.
	prop := func(nRaw, lamRaw uint8) bool {
		n := int(nRaw)%60 + 1
		lam := int(lamRaw)%4 + 1
		f := forest{first: 0, count: n, lambda: lam}
		seen := make(ident.Set)
		capacity := treeCap(lam)
		for ti := 0; f.size(ti) > 0; ti++ {
			if f.size(ti) > capacity {
				return false
			}
			if f.size(ti+1) > 0 && f.size(ti) != capacity {
				return false // only the last tree may be short
			}
			for _, id := range f.subtreeMembers(treeRef{tree: ti, pos: 0}) {
				if !seen.Add(id) {
					return false
				}
			}
		}
		return seen.Len() == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBlockRootIsAncestorAtRightLevel(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		fo := forest{first: 0, count: n, lambda: 3}
		for _, q := range ident.Range(n) {
			ref, _ := fo.locate(q)
			for x := 1; x <= 3; x++ {
				root, ok := fo.blockRoot(q, x)
				if level(ref.pos) < 3-x {
					if ok {
						return false
					}
					continue
				}
				if !ok {
					return false
				}
				rootRef, _ := fo.locate(root)
				if rootRef.tree != ref.tree || level(rootRef.pos) != 3-x {
					return false
				}
				// root's subtree must contain q.
				found := false
				for _, m := range fo.subtreeMembers(rootRef) {
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
	locate map[ident.ProcID]treeRef
}

func newRefForest(procs []ident.ProcID, lambda int) *refForest {
	f := &refForest{lambda: lambda, locate: make(map[ident.ProcID]treeRef, len(procs))}
	for s := treeCap(lambda); len(procs) > 0; {
		k := min(s, len(procs))
		for pos, id := range procs[:k] {
			f.locate[id] = treeRef{tree: len(f.trees), pos: pos}
		}
		f.trees = append(f.trees, append([]ident.ProcID(nil), procs[:k]...))
		procs = procs[k:]
	}
	return f
}

func (f *refForest) rootsOfDepth(x int) []treeRef {
	if x < 1 || x > f.lambda {
		return nil
	}
	lo, hi := treeCap(f.lambda-x), treeCap(f.lambda-x+1)
	var out []treeRef
	for ti, tr := range f.trees {
		for pos := lo; pos < hi && pos < len(tr); pos++ {
			out = append(out, treeRef{tree: ti, pos: pos})
		}
	}
	return out
}

func (f *refForest) subtreeMembers(r treeRef) []ident.ProcID {
	tr := f.trees[r.tree]
	if r.pos >= len(tr) {
		return nil
	}
	queue := []int{r.pos}
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
	pos := r.pos
	for level(pos) > f.lambda-x {
		pos = (pos - 1) / 2
	}
	if level(pos) != f.lambda-x {
		return ident.None, false
	}
	return f.trees[r.tree][pos], true
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
			f := forest{first: first, count: count, lambda: lam}
			for ti, tr := range ref.trees {
				if f.size(ti) != len(tr) {
					t.Fatalf("count=%d λ=%d: tree %d holds %d, want %d", count, lam, ti, f.size(ti), len(tr))
				}
			}
			if n := f.size(len(ref.trees)); n != 0 {
				t.Fatalf("count=%d λ=%d: %d members past the last tree", count, lam, n)
			}
			for id := first - 2; id < first+ident.ProcID(count)+2; id++ {
				got, ok := f.locate(id)
				want, wantOK := ref.locate[id]
				if ok != wantOK || got != want {
					t.Fatalf("count=%d λ=%d: locate(%v) = %v,%v want %v,%v", count, lam, id, got, ok, want, wantOK)
				}
				if !ok {
					continue
				}
				if f.at(got) != id {
					t.Fatalf("count=%d λ=%d: At(%v) = %v want %v", count, lam, got, f.at(got), id)
				}
				members := f.subtreeMembers(got)
				if want := ref.subtreeMembers(got); !eq(members, want) {
					t.Fatalf("count=%d λ=%d: subtreeMembers(%v) = %v want %v", count, lam, got, members, want)
				}
				for i, m := range members {
					mr, _ := f.locate(m)
					if walkIndex(got.pos, mr.pos) != i {
						t.Fatalf("count=%d λ=%d: walkIndex(%d,%d) = %d want %d", count, lam, got.pos, mr.pos, walkIndex(got.pos, mr.pos), i)
					}
				}
				inSub := ident.NewSet(members...)
				for _, q := range procs[got.tree*treeCap(lam) : got.tree*treeCap(lam)+f.size(got.tree)] {
					if f.inSubtree(got, q) != inSub.Has(q) {
						t.Fatalf("count=%d λ=%d: inSubtree(%v,%v) = %v", count, lam, got, q, !inSub.Has(q))
					}
				}
				for x := 1; x <= lam; x++ {
					gr, gok := f.blockRoot(id, x)
					wr, wok := ref.blockRoot(id, x)
					if gok != wok || gr != wr {
						t.Fatalf("count=%d λ=%d: blockRoot(%v,%d) = %v,%v want %v,%v", count, lam, id, x, gr, gok, wr, wok)
					}
				}
			}
			for x := 0; x <= lam+1; x++ {
				got, want := f.rootsOfDepth(x), ref.rootsOfDepth(x)
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
	f := forest{first: 25, count: 1000, lambda: 5}
	root := treeRef{tree: 3, pos: 1}
	if n := testing.AllocsPerRun(100, func() {
		for d := 0; ; d++ {
			if _, n := f.subtreeLevel(root, d); n == 0 {
				break
			}
		}
		f.inSubtree(root, 130)
		f.blockRoot(130, 2)
	}); n != 0 {
		t.Fatalf("level walk allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { f.subtreeMembers(root) }); n != 1 {
		t.Fatalf("SubtreeMembers allocates %v times, want 1 (its result)", n)
	}
}
