package alg5

import (
	"byzex/internal/ident"
	"byzex/internal/sig"
)

// piTable aggregates the π(M, q, x) counts of the paper: for each passive
// processor q, the set of distinct active processors whose verified string
// with index x lists q.
type piTable struct {
	index   int
	byProc  map[ident.ProcID]ident.Set
	sources []sig.SignedBytes // the verified strings, for forwarding
}

// buildPiTable verifies and aggregates strings for the given index. Strings
// must carry exactly one signature by an active processor and decode to
// [index, procs]; everything else is ignored.
func (ly *layout) buildPiTable(strings []sig.SignedBytes, index int, verifier sig.Verifier) *piTable {
	tbl := &piTable{index: index, byProc: make(map[ident.ProcID]ident.Set)}
	seen := make(ident.Set) // one string per signer
	for _, sb := range strings {
		if len(sb.Chain) != 1 {
			continue
		}
		signer := sb.Chain[0].Signer
		if !ly.isActive(signer) || !seen.Add(signer) {
			continue
		}
		idx, procs, err := parseStringBody(sb.Body)
		if err != nil || idx != index {
			seen.Remove(signer)
			continue
		}
		if sb.Verify(verifier) != nil {
			seen.Remove(signer)
			continue
		}
		tbl.sources = append(tbl.sources, sb)
		for _, q := range procs {
			if tbl.byProc[q] == nil {
				tbl.byProc[q] = make(ident.Set)
			}
			tbl.byProc[q].Add(signer)
		}
	}
	return tbl
}

// pi returns π(M, q, index): the number of distinct active endorsers of q.
func (tbl *piTable) pi(q ident.ProcID) int { return tbl.byProc[q].Len() }

// anyInSubtree reports whether any member of the subtree rooted at ref
// reaches the threshold.
func (ly *layout) anyInSubtree(tbl *piTable, ref treeRef, thr int) bool {
	for d := 0; ; d++ {
		first, n := ly.forest.subtreeLevel(ref, d)
		if n == 0 {
			return false
		}
		for q := first; q < first+ident.ProcID(n); q++ {
			if tbl.pi(q) >= thr {
				return true
			}
		}
	}
}

// hasProofOfWork evaluates the paper's proof-of-work predicate for the
// depth-x subtree rooted at ref, against the π counts for index x:
//
//	(i)  x = λ: trivially satisfied (every tree is processed in block λ);
//	(ii) x < λ: π(root) ≥ α−2t, or both child subtrees contain a processor
//	     reaching the threshold.
func (ly *layout) hasProofOfWork(tbl *piTable, ref treeRef, x int) bool {
	if x == ly.lambda {
		return true
	}
	thr := ly.threshold()
	root := ly.forest.at(ref)
	if tbl.pi(root) >= thr {
		return true
	}
	// Both child subtrees (a missing child is an empty one).
	return ly.anyInSubtree(tbl, treeRef{tree: ref.tree, pos: 2*ref.pos + 1}, thr) &&
		ly.anyInSubtree(tbl, treeRef{tree: ref.tree, pos: 2*ref.pos + 2}, thr)
}

// powStringsFor selects, from the verified strings, those relevant to the
// given subtree (mentioning the root or any member), which is what an
// active processor attaches to an activation message.
func (ly *layout) powStringsFor(tbl *piTable, ref treeRef) []sig.SignedBytes {
	var out []sig.SignedBytes
	for _, sb := range tbl.sources {
		_, procs, err := parseStringBody(sb.Body)
		if err != nil {
			continue
		}
		for _, q := range procs {
			if ly.forest.inSubtree(ref, q) {
				out = append(out, sb)
				break
			}
		}
	}
	return out
}

// isBlockRoot reports whether q acts as a subtree root in block x.
func (ly *layout) isBlockRoot(q ident.ProcID, x int) bool {
	ref, ok := ly.forest.locate(q)
	return ok && level(ref.pos) == ly.lambda-x
}
