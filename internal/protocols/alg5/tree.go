package alg5

import (
	"math/bits"

	"byzex/internal/ident"
)

// The passive processors are partitioned into complete binary trees of
// capacity treeCap(λ) = 2^λ - 1 (the last tree may hold fewer members).
// Positions use 0-based heap indexing: the children of position i are 2i+1
// and 2i+2; the root is position 0 at level 0; leaves sit at level λ-1.
//
// The paper speaks of subtrees "whose leaves are the leaves of the original
// binary tree": these are exactly the subtrees rooted at some position and
// containing all of its descendants. A subtree rooted at level k has depth
// λ-k and at most treeCap(λ-k) members. Block x processes the depth-x
// subtrees, i.e. those rooted at level λ-x.
//
// The passives are a contiguous id range, so a forest is three integers,
// free to build whatever n is, and every query is index arithmetic:
// position p of tree k holds processor first + k·treeCap(λ) + p, and a
// subtree's BFS walk is one run of consecutive positions per level.

// treeRef addresses one node of a forest: tree index plus heap position.
type treeRef struct{ tree, pos int }

// level returns the level of a heap position (root = 0).
func level(pos int) int { return bits.Len(uint(pos)+1) - 1 }

// treeCap returns l(x) = 2^x - 1, the capacity of a depth-x complete tree.
func treeCap(x int) int { return (1 << uint(x)) - 1 }

// lambdaFor returns the smallest λ with 2^λ - 1 ≥ s, i.e. the depth of the
// smallest complete binary tree holding s members (λ ≥ 1).
func lambdaFor(s int) int {
	lam := 1
	for treeCap(lam) < s {
		lam++
	}
	return lam
}

// walkIndex returns the index of pos in the BFS walk of the subtree rooted at
// its ancestor root (0 for root itself): the treeCap(d) positions of the d
// complete levels between them, then those left of pos on its own level.
func walkIndex(root, pos int) int {
	d := level(pos) - level(root)
	return treeCap(d) + pos - ((root+1)<<uint(d) - 1)
}

// forest is the partition of the processors first, ..., first+count-1 (in
// that order) into binary trees of depth lambda ≥ 1: every tree holds
// treeCap(lambda) members except possibly the last.
type forest struct {
	first  ident.ProcID
	count  int
	lambda int
}

// size returns the number of members of tree ti (0 past the last tree).
func (f forest) size(ti int) int {
	return max(0, min(treeCap(f.lambda), f.count-ti*treeCap(f.lambda)))
}

// locate returns the position of a processor, if it is in the forest.
func (f forest) locate(id ident.ProcID) (treeRef, bool) {
	off := int(id) - int(f.first)
	if off < 0 || off >= f.count {
		return treeRef{}, false
	}
	return treeRef{tree: off / treeCap(f.lambda), pos: off % treeCap(f.lambda)}, true
}

// at returns the processor at a position.
func (f forest) at(r treeRef) ident.ProcID {
	return f.first + ident.ProcID(r.tree*treeCap(f.lambda)+r.pos)
}

// rootsOfDepth returns the refs of all existing roots of depth-x subtrees,
// i.e. the positions at level lambda-x, across all trees.
func (f forest) rootsOfDepth(x int) []treeRef {
	if x < 1 || x > f.lambda {
		return nil
	}
	lo, hi := treeCap(f.lambda-x), treeCap(f.lambda-x+1) // the positions at level lambda-x
	trees := (f.count + treeCap(f.lambda) - 1) / treeCap(f.lambda)
	out := make([]treeRef, 0, trees*(hi-lo))
	for ti := 0; ti < trees; ti++ {
		for pos := lo; pos < min(hi, f.size(ti)); pos++ {
			out = append(out, treeRef{tree: ti, pos: pos})
		}
	}
	return out
}

// subtreeLevel returns the members of the subtree rooted at r that sit d
// levels below r: n consecutive ids from first, n = 0 once the subtree is
// exhausted. d = 0, 1, ... is its BFS order, walked without allocating.
func (f forest) subtreeLevel(r treeRef, d int) (first ident.ProcID, n int) {
	lo := (r.pos+1)<<uint(d) - 1
	hi := min(lo+1<<uint(d), f.size(r.tree))
	if r.pos < 0 || lo >= hi {
		return 0, 0
	}
	return f.at(treeRef{tree: r.tree, pos: lo}), hi - lo
}

// subtreeMembers returns the processors of the subtree rooted at r, in BFS
// order starting with the root.
func (f forest) subtreeMembers(r treeRef) []ident.ProcID {
	var out []ident.ProcID
	for d := 0; ; d++ {
		first, n := f.subtreeLevel(r, d)
		if n == 0 {
			return out
		}
		if out == nil { // every member sits at or after r.pos, within r's depth
			out = make([]ident.ProcID, 0, min(treeCap(f.lambda-level(r.pos)), f.size(r.tree)-r.pos))
		}
		for i := 0; i < n; i++ {
			out = append(out, first+ident.ProcID(i))
		}
	}
}

// inSubtree reports whether q is a member of the subtree rooted at r.
func (f forest) inSubtree(r treeRef, q ident.ProcID) bool {
	qr, ok := f.locate(q)
	for ok && qr.pos > r.pos {
		qr.pos = (qr.pos - 1) / 2
	}
	return ok && qr == r
}

// blockRoot returns the processor acting as q's root during block x: q's
// ancestor at level lambda-x (q itself when it sits exactly there). ok is
// false if q is above that level (its subtree went in an earlier block).
func (f forest) blockRoot(q ident.ProcID, x int) (ident.ProcID, bool) {
	r, ok := f.locate(q)
	up := level(r.pos) - (f.lambda - x)
	if !ok || up < 0 || x > f.lambda {
		return ident.None, false
	}
	r.pos = (r.pos+1)>>uint(up) - 1 // the ancestor `up` levels above
	return f.at(r), true
}
