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
// Set-up costs O(n·t) before the first message and not O(n²): the passive
// processors are the contiguous id range [α, n), which makes the forest pure
// index arithmetic (a forest is three integers, tree.go), and the run's one
// layout, which every node points to, holds one list, the actives, whose
// first 2t+1 are the core; the block schedule is closed-form. An active's
// passive sets B(p, x) and F(p, x−1) are flags indexed by id − α, walked in
// id order; only the fan-out below α spells the passives out. The run's
// builder (alg5.go) carves every kind of per-processor state from one block
// sized to the run.
//
// The ids are dense, and the per-block state is indexed by them: π(M, q, x)
// is a counter per passive q at q − α, over a bitset of the actives already
// counted (pow.go), in a table each active builds once and refills per
// block, as it Resets one Algorithm 4 group; a root walks its subtree and an
// active the block's roots by index arithmetic, with no member or root list.
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
	lambda     int // tree depth (used in modeFull)

	actives   []ident.ProcID // ids 0..α-1 (modeFull) or 0..2t otherwise; the first 2t+1 run Algorithm 2
	forest    forest         // the passives len(actives)..n-1, modeFull only
	lastPhase int
}

func newLayout(n, t, s int, disablePoW bool) (layout, error) {
	if t < 1 || n < 2*t+1 {
		return layout{}, fmt.Errorf("%w: alg5 requires n ≥ 2t+1 with t ≥ 1 (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	if s < 1 {
		return layout{}, fmt.Errorf("%w: alg5 requires s ≥ 1 (got %d)", protocol.ErrBadParams, s)
	}
	ly := layout{n: n, t: t, mode: modeFull, alpha: Alpha(t), disablePoW: disablePoW, lambda: lambdaFor(s)}
	switch {
	case n == 2*t+1:
		ly.mode, ly.lastPhase, ly.actives = modeAlg2Only, 3*t+3, ident.Range(2*t+1)
	case n < ly.alpha:
		ly.mode, ly.lastPhase, ly.actives = modeFanout, 3*t+4, ident.Range(2*t+1)
	default:
		ly.actives = ident.Range(ly.alpha)
		ly.forest = forest{first: ident.ProcID(ly.alpha), count: n - ly.alpha, lambda: ly.lambda}
		ly.lastPhase = ly.blockStart(0)
	}
	return ly, nil
}

// blockStart returns the first phase of block x (modeFull). Blocks run λ,
// λ-1, ..., 0 from phase 3t+5, and block y ≥ 1 spans 2·treeCap(y)+3 =
// 2^(y+1)+1 phases, so the blocks before x take 2^(λ+2) − 2^(x+2) + λ − x.
func (ly *layout) blockStart(x int) int {
	return 3*ly.t + 5 + 1<<uint(ly.lambda+2) - 1<<uint(x+2) + ly.lambda - x
}

// phaseToBlock maps an engine phase to (block, relative offset). ok is
// false outside the block window.
func (ly *layout) phaseToBlock(phase int) (x, rel int, ok bool) {
	if ly.mode != modeFull || phase < ly.blockStart(ly.lambda) || phase > ly.lastPhase {
		return 0, 0, false
	}
	x = ly.lambda
	for x > 0 && phase >= ly.blockStart(x-1) {
		x--
	}
	return x, phase - ly.blockStart(x), true
}

// passive returns the i-th passive processor, id len(actives)+i.
func (ly *layout) passive(i int) ident.ProcID { return ident.ProcID(len(ly.actives) + i) }

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

// encodeActivate marshals an activation payload, carved from slab: valid
// message plus proof-of-work strings.
func encodeActivate(slab *sig.Slab, sv sig.SignedValue, strings []sig.SignedBytes) []byte {
	size := 1 + sv.EncodedLen() + wire.UintLen(uint64(len(strings)))
	for _, s := range strings {
		size += s.EncodedLen()
	}
	w := slab.Writer(size)
	w.Byte(tagActivate)
	sv.Encode(&w)
	w.Uint(uint64(len(strings)))
	for _, s := range strings {
		s.Encode(&w)
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

// stringBody encodes the Algorithm 4 exchange value [index, procs], carved
// from slab.
func stringBody(slab *sig.Slab, index int, procs []ident.ProcID) []byte {
	size := wire.UintLen(uint64(index)) + wire.UintLen(uint64(len(procs)))
	for _, p := range procs {
		size += wire.IntLen(int64(p))
	}
	w := slab.Writer(size)
	w.Uint(uint64(index))
	w.Procs(procs)
	return w.Bytes()
}

// parseStringBody decodes a [index, procs] body, appending procs to dst.
func parseStringBody(body []byte, dst []ident.ProcID) (int, []ident.ProcID, error) {
	r := wire.NewReader(body)
	idx := r.Uint()
	procs := r.ProcsInto(dst)
	if err := r.Finish(); err != nil {
		return 0, dst, err
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
		return sig.DecodeTagged(links, payload, payload[0])
	case tagActivate:
		sv, _, ok := decodeActivate(links, payload)
		return sv, ok
	default:
		return sig.SignedValue{}, false
	}
}
