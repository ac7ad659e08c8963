package alg5

import (
	mrand "math/rand"
	"slices"
	"testing"
	"testing/quick"

	"byzex/internal/ident"
	"byzex/internal/sig"
	"byzex/internal/wire"
)

// refPiTable is the set-semantics π table the counters replaced: for each
// listed q the set of active signers whose verified string with the index
// lists it, one string per signer, and the counted strings in input order.
func refPiTable(ly *layout, strs []sig.SignedBytes, index int, verifier sig.Verifier) (map[ident.ProcID]map[ident.ProcID]struct{}, []sig.SignedBytes) {
	byProc := make(map[ident.ProcID]map[ident.ProcID]struct{})
	seen := make(map[ident.ProcID]bool)
	var sources []sig.SignedBytes
	for _, sb := range strs {
		if len(sb.Chain) != 1 {
			continue
		}
		signer := sb.Chain[0].Signer
		if !ly.isActive(signer) || seen[signer] {
			continue
		}
		r := wire.NewReader(sb.Body)
		idx := r.Uint()
		procs := r.Procs()
		if r.Finish() != nil || int(idx) != index || sb.Verify(verifier) != nil {
			continue
		}
		seen[signer] = true
		sources = append(sources, sb)
		for _, q := range procs {
			if byProc[q] == nil {
				byProc[q] = make(map[ident.ProcID]struct{})
			}
			byProc[q][signer] = struct{}{}
		}
	}
	return byProc, sources
}

// randomStrings draws proof-of-work strings for index, adversarial ones
// among them: lists that repeat an id or name actives, negative ids and ids
// past n; passive and negative signers, repeated signers, two-link strings,
// bodies changed after signing, wrong indices and undecodable bodies.
func randomStrings(rng *mrand.Rand, ly *layout, scheme sig.Scheme, index int) []sig.SignedBytes {
	slab := new(sig.Slab)
	var out []sig.SignedBytes
	for k := rng.Intn(3 * ly.alpha); k > 0; k-- {
		procs := make([]ident.ProcID, rng.Intn(8))
		for i := range procs {
			switch rng.Intn(6) {
			case 0:
				procs[i] = ident.ProcID(rng.Intn(ly.alpha)) // an active
			case 1:
				procs[i] = ident.ProcID(ly.n + rng.Intn(5) - 2) // around n
			case 2:
				procs[i] = -ident.ProcID(1 + rng.Intn(3))
			case 3:
				if i > 0 {
					procs[i] = procs[rng.Intn(i)] // listed twice
					continue
				}
				fallthrough
			default:
				procs[i] = ly.passive(rng.Intn(ly.n - ly.alpha))
			}
		}
		idx := index
		if rng.Intn(8) == 0 {
			idx = index + 1
		}
		signer := ident.ProcID(rng.Intn(ly.alpha))
		if rng.Intn(8) == 0 {
			signer = ly.passive(rng.Intn(ly.n - ly.alpha))
		}
		s, _ := scheme.Signer(signer)
		sb := slab.SignBytes(s, stringBody(slab, idx, procs))
		switch rng.Intn(10) {
		case 0: // a bad signature: the body changed after signing
			sb.Body = stringBody(slab, idx, append(procs, ly.passive(0)))
		case 1:
			other, _ := scheme.Signer(ident.ProcID(rng.Intn(ly.alpha)))
			sb = sb.CoSign(other)
		case 2:
			sb.Body = []byte{0xFF}
		case 3:
			sb.Chain = sig.Chain{{Signer: -2, Sig: sb.Chain[0].Sig}}
		}
		out = append(out, sb)
	}
	return out
}

// TestQuickPiTableMatchesSetReference checks the counter table against the
// map-built set reference on random string sets: π(q) for every q of the
// window (and 0 around it), and the forwarded strings in the same order. One
// table is refilled for every draw, as an active refills its own per block;
// a subtree root's table covers only its window.
func TestQuickPiTableMatchesSetReference(t *testing.T) {
	ly := mustLayout(t, 90, 3, 7) // α = 25, 65 passives in trees of 7
	scheme := sig.NewHMAC(ly.n, 9)
	verifier := sig.NewCachedVerifier(scheme)
	active := newPiTable(ly.passive(0), ly.n-ly.alpha, ly.alpha)
	root := treeRef{tree: 1, pos: 1}
	first := ly.forest.at(root)
	subtree := newPiTable(first, ly.forest.size(root.tree)-root.pos, 1)
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		index := 1 + rng.Intn(2)
		strs := randomStrings(rng, &ly, scheme, index)
		want, wantSources := refPiTable(&ly, strs, index, verifier)
		for _, tbl := range []*piTable{&active, &subtree} {
			tbl.build(&ly, strs, index, verifier)
			if !slices.EqualFunc(tbl.sources, wantSources, func(a piSource, b sig.SignedBytes) bool {
				return &a.sb.Body[0] == &b.Body[0] && &a.sb.Chain[0] == &b.Chain[0]
			}) {
				t.Logf("seed %d: %d sources, want %d", seed, len(tbl.sources), len(wantSources))
				return false
			}
			for _, src := range tbl.sources { // what powStringsFor selects by
				if _, procs, _ := parseStringBody(src.sb.Body, nil); !slices.Equal(src.procs, procs) {
					t.Logf("seed %d: source lists %v, its body %v", seed, src.procs, procs)
					return false
				}
			}
			for q := tbl.first - 3; q < tbl.first+ident.ProcID(len(tbl.counts))+3; q++ {
				exp := len(want[q])
				if q < tbl.first || q >= tbl.first+ident.ProcID(len(tbl.counts)) {
					exp = 0
				}
				if tbl.pi(q) != exp {
					t.Logf("seed %d: pi(%v) = %d, want %d", seed, q, tbl.pi(q), exp)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
