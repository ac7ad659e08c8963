// Package alg5 implements Algorithm 5 of the paper (Lemma 5, Theorem 7):
// authenticated Byzantine Agreement for any ratio between n and t that
// sends O(t² + nt/s) messages — O(n + t²) for s = t, matching the Theorem 2
// lower bound — in O(t + s) phases.
//
// Structure:
//
//   - α = the smallest perfect square > 6t processors are "active"; the
//     first 2t+1 of them run Algorithm 2 and hand every active processor a
//     transferable *valid message* (the value with ≥ t+1 active signatures).
//   - The remaining passive processors are partitioned into complete binary
//     trees of size 2^λ − 1. Blocks x = λ..1 process the depth-x subtrees:
//     an active processor activates a subtree root only with a *proof of
//     work* — signed evidence that ≥ α−2t active processors believe the
//     root (or witnesses in both child subtrees) still lacks the value. An
//     activated root walks its subtree collecting signatures and reports
//     them back to the active processors.
//   - Between blocks, the α active processors run Algorithm 4 (the
//     O(N^1.5) grid exchange) to agree on the sets F(p, x) of passive
//     processors whose signatures are still missing; these signed
//     [index, list] strings are exactly the proofs of work for the next
//     block.
//   - Block 0 is a final catch-all: actives send the valid message
//     directly to any processor still in B(p, 0).
//
// Set-up is O(t) per processor, so a run costs O(n·t) before its first
// message and not O(n²): the passive processors are the contiguous id range
// [α, n), which makes the forest pure index arithmetic (a forest is three
// integers, tree.go), and a node's layout holds only the two active lists. Whoever
// needs the passives spelled out — an active's B(p, λ), the fan-out targets
// below α — generates the range on the spot.
//
// Everybody decides on the value of the first valid message received —
// faulty processors cannot fabricate one for a wrong value, because any
// t+1 active signatures include a correct processor's, and correct
// processors only sign their committed value.
package alg5

import (
	"fmt"
	"slices"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/wire"
)

// Alpha returns α, the smallest perfect square strictly greater than 6t.
func Alpha(t int) int {
	for m := 1; ; m++ {
		if m*m > 6*t {
			return m * m
		}
	}
}

// Execution modes: the full algorithm needs n ≥ α; below that the paper
// prescribes cheaper degenerate forms.
type mode int

const (
	// modeAlg2Only: n = 2t+1 — Algorithm 2 alone.
	modeAlg2Only mode = iota + 1
	// modeFanout: 2t+1 < n < α — Algorithm 2 plus one fan-out phase in
	// which the first t+1 processors send their valid message to every
	// passive processor (the paper's "extend the first algorithm by one
	// phase and O(t²) messages").
	modeFanout
	// modeFull: n ≥ α — the full block structure.
	modeFull
)

// layout is the deterministic structure shared by every node: roles, the
// passive forest, and the phase schedule.
type layout struct {
	n, t       int
	mode       mode
	alpha      int
	disablePoW bool

	lambda int // tree depth

	coreActives []ident.ProcID // ids 0..2t (run Algorithm 2)
	actives     []ident.ProcID // ids 0..α-1 (modeFull) or 0..2t otherwise
	forest      forest         // the passives len(actives)..n-1, modeFull only

	// blockStart[x] is the first phase of block x (modeFull); blocks run
	// λ, λ-1, ..., 0. Block x>0 spans 2·treeCap(x)+3 phases; block 0 spans 1.
	blockStart []int
	lastPhase  int
}

func newLayout(n, t, s int, disablePoW bool) (layout, error) {
	if t < 1 || n < 2*t+1 {
		return layout{}, fmt.Errorf("%w: alg5 requires n ≥ 2t+1 with t ≥ 1 (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	if s < 1 {
		return layout{}, fmt.Errorf("%w: alg5 requires s ≥ 1 (got %d)", protocol.ErrBadParams, s)
	}
	ly := layout{n: n, t: t, alpha: Alpha(t), coreActives: ident.Range(2*t + 1), disablePoW: disablePoW}
	switch {
	case n == 2*t+1:
		ly.mode = modeAlg2Only
		ly.actives = ly.coreActives
		ly.lastPhase = 3*t + 3
		return ly, nil
	case n < ly.alpha:
		ly.mode = modeFanout
		ly.actives = ly.coreActives
		ly.lastPhase = 3*t + 4
		return ly, nil
	}

	ly.mode = modeFull
	ly.actives = ident.Range(ly.alpha)
	ly.lambda = lambdaFor(s)
	ly.forest = forest{first: ident.ProcID(ly.alpha), count: n - ly.alpha, lambda: ly.lambda}

	ly.blockStart = make([]int, ly.lambda+1)
	start := 3*t + 5
	for x := ly.lambda; x >= 1; x-- {
		ly.blockStart[x] = start
		start += 2*treeCap(x) + 3
	}
	ly.blockStart[0] = start
	ly.lastPhase = start
	return ly, nil
}

// phaseToBlock maps an engine phase to (block, relative offset). ok is
// false outside the block window.
func (ly *layout) phaseToBlock(phase int) (x, rel int, ok bool) {
	if ly.mode != modeFull || phase < ly.blockStart[ly.lambda] {
		return 0, 0, false
	}
	for x = ly.lambda; x >= 1; x-- {
		end := ly.blockStart[x] + 2*treeCap(x) + 2
		if phase >= ly.blockStart[x] && phase <= end {
			return x, phase - ly.blockStart[x], true
		}
	}
	if phase == ly.blockStart[0] {
		return 0, 0, true
	}
	return 0, 0, false
}

// passives lists the passive processors, ids len(actives)..n-1, for the one
// caller per mode that needs them spelled out.
func (ly *layout) passives() []ident.ProcID { return ident.Range(ly.n)[len(ly.actives):] }

// isCoreActive reports whether id runs Algorithm 2.
func (ly *layout) isCoreActive(id ident.ProcID) bool { return int(id) < 2*ly.t+1 }

// isActive reports whether id is an active processor.
func (ly *layout) isActive(id ident.ProcID) bool { return int(id) < len(ly.actives) }

// threshold is α − 2t, the number of active endorsements a proof of work
// needs per witness.
func (ly *layout) threshold() int { return ly.alpha - 2*ly.t }

// isValid is the paper's valid-message predicate: a value followed by at
// least t+1 distinct signatures of core active processors (plus possibly
// passive ones), all cryptographically valid.
func (ly *layout) isValid(sv sig.SignedValue, verifier sig.Verifier) bool {
	// At most t+1 distinct core signers are kept, so a chain of any length is
	// scanned in O(len·t) and, for t < 16, without allocating.
	var stack [16]ident.ProcID
	seen := stack[:0]
	for _, l := range sv.Chain {
		if ly.isCoreActive(l.Signer) && !slices.Contains(seen, l.Signer) {
			if seen = append(seen, l.Signer); len(seen) > ly.t {
				return sv.Verify(verifier) == nil
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Wire formats

// Message tags.
const (
	tagFanout   byte = 0x51 // valid message alone (fan-out, block-0 direct)
	tagActivate byte = 0x52 // valid message + proof-of-work strings
	tagDown     byte = 0x53 // root -> member chain extension request
	tagUp       byte = 0x54 // member -> root signed reply
	tagReport   byte = 0x55 // root -> active final chain
)

// encodeSV marshals a tagged SignedValue payload.
func encodeSV(tag byte, sv sig.SignedValue) []byte {
	w := wire.NewWriter(1 + sv.EncodedLen())
	w.Byte(tag)
	sv.Encode(w)
	return w.Bytes()
}

// decodeSV parses a tagged SignedValue payload, its chain carved from links.
// A caller that does not keep the result rewinds links to where it was.
func decodeSV(links *sig.Slab, payload []byte, wantTag byte) (sig.SignedValue, bool) {
	if len(payload) == 0 || payload[0] != wantTag {
		return sig.SignedValue{}, false
	}
	r := wire.NewReader(payload[1:])
	sv := sig.DecodeSignedValue(r, links)
	if r.Finish() != nil {
		return sig.SignedValue{}, false
	}
	return sv, true
}

// encodeActivate marshals an activation payload: valid message plus
// proof-of-work strings.
func encodeActivate(sv sig.SignedValue, strings []sig.SignedBytes) []byte {
	size := 1 + sv.EncodedLen() + wire.UintLen(uint64(len(strings)))
	for _, s := range strings {
		size += s.EncodedLen()
	}
	w := wire.NewWriter(size)
	w.Byte(tagActivate)
	sv.Encode(w)
	w.Uint(uint64(len(strings)))
	for _, s := range strings {
		s.Encode(w)
	}
	return w.Bytes()
}

// decodeActivate parses an activation payload, every chain carved from links.
func decodeActivate(links *sig.Slab, payload []byte) (sig.SignedValue, []sig.SignedBytes, bool) {
	if len(payload) == 0 || payload[0] != tagActivate {
		return sig.SignedValue{}, nil, false
	}
	r := wire.NewReader(payload[1:])
	sv := sig.DecodeSignedValue(r, links)
	cnt := r.Count(sig.MinSignedBytesLen)
	if r.Err() != nil {
		return sig.SignedValue{}, nil, false
	}
	strs := make([]sig.SignedBytes, 0, cnt)
	for i := 0; i < cnt; i++ {
		strs = append(strs, sig.DecodeSignedBytes(r, links))
	}
	if r.Finish() != nil {
		return sig.SignedValue{}, nil, false
	}
	return sv, strs, true
}

// stringBody encodes the Algorithm 4 exchange value [index, procs].
func stringBody(index int, procs []ident.ProcID) []byte {
	w := wire.NewWriter(16 + len(procs)*4)
	w.Uint(uint64(index))
	w.Procs(procs)
	return w.Bytes()
}

// parseStringBody decodes a [index, procs] body.
func parseStringBody(body []byte) (int, []ident.ProcID, error) {
	r := wire.NewReader(body)
	idx := r.Uint()
	procs := r.Procs()
	if err := r.Finish(); err != nil {
		return 0, nil, err
	}
	return int(idx), procs, nil
}

// extractValid pulls a SignedValue out of any payload kind that carries one
// (used by the opportunistic adopt-scan: a valid message is self-certifying
// no matter how it arrived).
func extractValid(links *sig.Slab, payload []byte) (sig.SignedValue, bool) {
	if len(payload) == 0 {
		return sig.SignedValue{}, false
	}
	switch payload[0] {
	case tagFanout, tagDown, tagUp, tagReport:
		return decodeSV(links, payload, payload[0])
	case tagActivate:
		sv, _, ok := decodeActivate(links, payload)
		return sv, ok
	default:
		return sig.SignedValue{}, false
	}
}
