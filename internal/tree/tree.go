// Package tree implements the complete-binary-tree partition of passive
// processors used by Algorithm 5. The passive processors are divided into
// trees of capacity s = 2^λ - 1 (the last tree may hold fewer members).
// Positions use 0-based heap indexing: the children of position i are 2i+1
// and 2i+2; the root is position 0 at level 0; leaves sit at level λ-1.
//
// The paper speaks of subtrees "whose leaves are the leaves of the original
// binary tree": these are exactly the subtrees rooted at some position and
// containing all of its descendants. A subtree rooted at level k has depth
// λ-k and at most l(λ-k) = 2^(λ-k) - 1 members. Block x of Algorithm 5
// processes the depth-x subtrees, i.e. those rooted at level λ-x.
//
// Algorithm 5's passive processors are a contiguous id range, so a Forest is
// three integers, free to build whatever n is, and every query is index
// arithmetic: position p of tree k holds processor First + k·Cap(λ) + p, and
// a subtree's BFS walk is one run of consecutive positions per level.
package tree

import (
	"fmt"
	"math/bits"

	"byzex/internal/ident"
)

// Ref addresses one node of a forest: tree index plus heap position.
type Ref struct {
	Tree int
	Pos  int
}

// Level returns the level of a heap position (root = 0).
func Level(pos int) int { return bits.Len(uint(pos)+1) - 1 }

// Cap returns l(x) = 2^x - 1, the capacity of a depth-x complete tree.
func Cap(x int) int { return (1 << uint(x)) - 1 }

// LambdaFor returns the smallest λ with 2^λ - 1 ≥ s, i.e. the depth of the
// smallest complete binary tree holding s members (λ ≥ 1).
func LambdaFor(s int) int {
	if s < 1 {
		s = 1
	}
	lam := 1
	for Cap(lam) < s {
		lam++
	}
	return lam
}

// WalkIndex returns the index of pos in the BFS walk of the subtree rooted at
// its ancestor root (0 for root itself): the Cap(d) positions of the d
// complete levels between them, then those left of pos on its own level.
func WalkIndex(root, pos int) int {
	d := Level(pos) - Level(root)
	return Cap(d) + pos - ((root+1)<<uint(d) - 1)
}

// Forest is the partition of the processors First, ..., First+Count-1 (in
// that order) into binary trees of depth Lambda: every tree holds Cap(Lambda)
// members except possibly the last.
type Forest struct {
	First  ident.ProcID
	Count  int
	Lambda int
}

// NewForest partitions count processors starting at first into trees of depth
// lambda.
func NewForest(first ident.ProcID, count, lambda int) (Forest, error) {
	if lambda < 1 || first < 0 || count < 0 {
		return Forest{}, fmt.Errorf("tree: bad forest first=%v count=%d lambda=%d", first, count, lambda)
	}
	return Forest{First: first, Count: count, Lambda: lambda}, nil
}

// Trees returns the number of trees.
func (f Forest) Trees() int { return (f.Count + Cap(f.Lambda) - 1) / Cap(f.Lambda) }

// TreeSize returns the number of members of tree ti (0 past the last tree).
func (f Forest) TreeSize(ti int) int {
	return max(0, min(Cap(f.Lambda), f.Count-ti*Cap(f.Lambda)))
}

// Locate returns the position of a processor, if it is in the forest.
func (f Forest) Locate(id ident.ProcID) (Ref, bool) {
	off := int(id) - int(f.First)
	if off < 0 || off >= f.Count {
		return Ref{}, false
	}
	return Ref{Tree: off / Cap(f.Lambda), Pos: off % Cap(f.Lambda)}, true
}

// At returns the processor at a position.
func (f Forest) At(r Ref) ident.ProcID {
	return f.First + ident.ProcID(r.Tree*Cap(f.Lambda)+r.Pos)
}

// RootsOfDepth returns the refs of all existing roots of depth-x subtrees,
// i.e. the positions at level Lambda-x, across all trees.
func (f Forest) RootsOfDepth(x int) []Ref {
	if x < 1 || x > f.Lambda {
		return nil
	}
	lo, hi := Cap(f.Lambda-x), Cap(f.Lambda-x+1) // the positions at level Lambda-x
	out := make([]Ref, 0, f.Trees()*(hi-lo))
	for ti := 0; ti < f.Trees(); ti++ {
		for pos := lo; pos < min(hi, f.TreeSize(ti)); pos++ {
			out = append(out, Ref{Tree: ti, Pos: pos})
		}
	}
	return out
}

// SubtreeLevel returns the members of the subtree rooted at r that sit d
// levels below r: n consecutive ids from first, n = 0 once the subtree is
// exhausted. d = 0, 1, ... is its BFS order, walked without allocating.
func (f Forest) SubtreeLevel(r Ref, d int) (first ident.ProcID, n int) {
	lo := (r.Pos+1)<<uint(d) - 1
	hi := min(lo+1<<uint(d), f.TreeSize(r.Tree))
	if r.Pos < 0 || lo >= hi {
		return 0, 0
	}
	return f.At(Ref{Tree: r.Tree, Pos: lo}), hi - lo
}

// SubtreeMembers returns the processors of the subtree rooted at r, in BFS
// order starting with the root.
func (f Forest) SubtreeMembers(r Ref) []ident.ProcID {
	var out []ident.ProcID
	for d := 0; ; d++ {
		first, n := f.SubtreeLevel(r, d)
		if n == 0 {
			return out
		}
		if out == nil { // every member sits at or after r.Pos, within r's depth
			out = make([]ident.ProcID, 0, min(Cap(f.Lambda-Level(r.Pos)), f.TreeSize(r.Tree)-r.Pos))
		}
		for i := 0; i < n; i++ {
			out = append(out, first+ident.ProcID(i))
		}
	}
}

// InSubtree reports whether q is a member of the subtree rooted at r.
func (f Forest) InSubtree(r Ref, q ident.ProcID) bool {
	qr, ok := f.Locate(q)
	for ok && qr.Pos > r.Pos {
		qr.Pos = (qr.Pos - 1) / 2
	}
	return ok && qr == r
}

// BlockRoot returns the processor acting as q's root during block x: q's
// ancestor at level Lambda-x (q itself when it sits exactly there). ok is
// false if q is above that level (its subtree went in an earlier block).
func (f Forest) BlockRoot(q ident.ProcID, x int) (ident.ProcID, bool) {
	r, ok := f.Locate(q)
	up := Level(r.Pos) - (f.Lambda - x)
	if !ok || up < 0 || x > f.Lambda {
		return ident.None, false
	}
	r.Pos = (r.Pos+1)>>uint(up) - 1 // the ancestor `up` levels above
	return f.At(r), true
}
