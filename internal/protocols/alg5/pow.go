package alg5

import (
	"slices"

	"byzex/internal/ident"
	"byzex/internal/sig"
)

// piTable aggregates the π(M, q, x) counts of the paper over the passive ids
// [first, first+len(counts)): for each q, the number of distinct active
// processors whose verified string with index x lists q — a counter at
// q − first, as ids are dense. An active keeps one over all the passives and
// a subtree root one over its subtree, refilled by build.
type piTable struct {
	first   ident.ProcID
	counts  []piCount
	seen    ident.Set      // the actives whose string is counted: one per signer
	sources []piSource     // the counted strings in input order, for forwarding
	lists   []ident.ProcID // what the sources' procs are windows of
}

// piCount is one passive's π and the stamp of the last string that counted
// it, 1 + its index in sources: a string that lists q twice counts it once.
type piCount struct{ pi, last int32 }

// piSource is a counted string and the ids it lists.
type piSource struct {
	sb    sig.SignedBytes
	procs []ident.ProcID
}

// newPiTable returns a table over the n passive ids from first, with room
// for a string from each of the given number of actives.
func newPiTable(first ident.ProcID, n, actives int) piTable {
	return piTable{first: first, counts: make([]piCount, n), sources: make([]piSource, 0, actives)}
}

// build refills the table from strings for the given index. A string counts
// if it carries exactly one signature, by an active processor not counted
// yet, decodes to [index, procs] and verifies; everything else is ignored,
// as are the listed ids outside the table.
func (tbl *piTable) build(ly *layout, strings []sig.SignedBytes, index int, verifier sig.Verifier) {
	clear(tbl.counts)
	tbl.seen, tbl.sources, tbl.lists = ident.Set{}, tbl.sources[:0], tbl.lists[:0]
	for _, sb := range strings {
		if len(sb.Chain) != 1 {
			continue
		}
		signer := sb.Chain[0].Signer
		if !ly.isActive(signer) || tbl.seen.Has(signer) {
			continue
		}
		idx, lists, err := parseStringBody(sb.Body, tbl.lists)
		if err != nil || idx != index || sb.Verify(verifier) != nil {
			continue
		}
		procs := lists[len(tbl.lists):]
		tbl.seen.Add(signer)
		tbl.sources, tbl.lists = append(tbl.sources, piSource{sb: sb, procs: procs}), lists
		stamp := int32(len(tbl.sources))
		for _, q := range procs {
			if i := int(q) - int(tbl.first); i >= 0 && i < len(tbl.counts) && tbl.counts[i].last != stamp {
				tbl.counts[i] = piCount{pi: tbl.counts[i].pi + 1, last: stamp}
			}
		}
	}
}

// pi returns π(M, q, index): the number of distinct active endorsers of q (0
// outside the window).
func (tbl *piTable) pi(q ident.ProcID) int {
	if i := int(q) - int(tbl.first); i >= 0 && i < len(tbl.counts) {
		return int(tbl.counts[i].pi)
	}
	return 0
}

// anyInSubtree reports whether any member of the subtree rooted at ref
// reaches the threshold.
func (ly *layout) anyInSubtree(tbl *piTable, ref treeRef, thr int) bool {
	for j := 0; ; j++ {
		if q, ok := ly.forest.member(ref, j); !ok || tbl.pi(q) >= thr {
			return ok
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

// powStringsFor appends to out, from the verified strings, those relevant to
// the given subtree (mentioning the root or any member), which is what an
// active processor attaches to an activation message.
func (ly *layout) powStringsFor(tbl *piTable, ref treeRef, out []sig.SignedBytes) []sig.SignedBytes {
	for _, src := range tbl.sources {
		if slices.ContainsFunc(src.procs, func(q ident.ProcID) bool { return ly.forest.inSubtree(ref, q) }) {
			out = append(out, src.sb)
		}
	}
	return out
}

// isBlockRoot reports whether q acts as a subtree root in block x.
func (ly *layout) isBlockRoot(q ident.ProcID, x int) bool {
	ref, ok := ly.forest.locate(q)
	return ok && level(ref.pos) == ly.lambda-x
}
