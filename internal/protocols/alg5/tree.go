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

// eachRoot calls fn with the ref of every existing root of a depth-x subtree,
// i.e. every position at level lambda-x, tree by tree, and stops at the
// first error fn returns.
func (f forest) eachRoot(x int, fn func(treeRef) error) error {
	if x < 1 || x > f.lambda {
		return nil
	}
	lo, hi := treeCap(f.lambda-x), treeCap(f.lambda-x+1) // the positions at level lambda-x
	for ti := 0; f.size(ti) > 0; ti++ {
		for pos := lo; pos < min(hi, f.size(ti)); pos++ {
			if err := fn(treeRef{tree: ti, pos: pos}); err != nil {
				return err
			}
		}
	}
	return nil
}

// member returns the member at index j of the BFS walk of the subtree rooted
// at r (j = 0 is r itself; walkIndex is its inverse), and false past the
// walk's end: the walk is complete levels, then a prefix of the last one,
// each level a run of consecutive ids.
func (f forest) member(r treeRef, j int) (ident.ProcID, bool) {
	d := level(j) // the walk's level d holds indices treeCap(d) .. treeCap(d+1)-1
	pos := (r.pos+1)<<uint(d) - 1 + j - treeCap(d)
	if pos >= f.size(r.tree) {
		return ident.None, false
	}
	return f.at(treeRef{tree: r.tree, pos: pos}), true
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
