package sig

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"byzex/internal/ident"
	"byzex/internal/trace"
	"byzex/internal/wire"
)

// CachedVerifier wraps a Verifier with a verified-prefix cache for signature
// chains. The paper's relay-style algorithms re-verify a chain on every hop,
// and since link i signs over links 0..i-1 a chain of length L costs O(L²)
// signature checks over its lifetime. The cache remembers which exact chain
// prefixes have already verified over which exact body, so a relayed chain
// only pays crypto for the links appended since the last time it was seen —
// O(L) over the chain's lifetime.
//
// Structure. Every verified (body, prefix) pair is one node of a trie: the
// node owns a copy of the prefix's last link (signer and signature bytes),
// points at the node of the prefix one link shorter and, on the first link,
// owns a copy of the body. Nodes are found through an index from a 64-bit
// fingerprint of (body, prefix) to the nodes that have it.
//
// Soundness. A prefix is accepted from the cache only after walking a
// candidate node's parent pointers and finding every signer == the chain's,
// every signature bytes.Equal to the chain's, the walk ending exactly at the
// first link, and the body bytes.Equal to the caller's — the whole input of
// Verify for every link of the prefix, compared exactly. A node is created
// only for a prefix whose every link verified, so acceptance from the cache
// means the wrapped Verifier accepted byte-identical input before, and by
// determinism of Verify would again. Tampering with any byte of a cached
// prefix (a forged or truncated link, a swapped signer, a different body)
// fails the comparison at that link and pays real cryptography from there.
// The fingerprint carries no part of the argument: it only chooses which
// nodes to compare against, and a collision costs one failed comparison. It
// is hash/maphash under a seed drawn per verifier — run-to-run differences
// in it change which bucket a node sits in, never a verdict or a counter —
// folded link by link over the body and every (signer, signature), so that
// low-entropy tags (the plain scheme's 4-byte ids) on a shared last link
// still spread by what precedes them.
//
// Cost. Recognising an L-link chain that already verified is one maphash of
// the body and of each signature, one index lookup and L comparisons, with
// no allocation. A miss takes the fingerprint back one link at a time —
// the fold is invertible, so the shorter prefixes' fingerprints come out of
// the full one without storing them — looks each up until one is confirmed,
// pays the wrapped Verifier for the links past it, and adds one node and one
// signature copy per link it verified. Nodes and copies are carved from
// chunks, so a miss allocates only when a chunk runs out, and Reset hands the
// last chunks to the next run instead of letting them go.
//
// The cache is safe for concurrent use; single-signature Verify calls pass
// through to the wrapped Verifier uncached (hashing the message would cost
// as much as verifying it).
type CachedVerifier struct {
	Verifier

	seed maphash.Seed

	mu sync.RWMutex
	// index maps a fingerprint to the verified prefixes that have it,
	// chained through node.next.
	index map[uint64]*node
	// nodes and bytes are the current chunks: their length is what has
	// been carved, their capacity the chunk.
	nodes []node
	bytes []byte
	// expect is the number of prefixes the run was sized for (ResetFor).
	expect int

	hits   atomic.Int64
	misses atomic.Int64

	// sink receives KindVerifyHit/KindVerifyMiss events (nil disables).
	sink trace.Sink
}

var _ Verifier = (*CachedVerifier)(nil)

// node is one verified prefix of one chain over one body.
type node struct {
	parent *node // the prefix one link shorter; nil on the first link
	next   *node // the next node with the same fingerprint
	// owned is the last link's signature, behind the body on a first link.
	owned   []byte
	bodyLen int32
	signer  ident.ProcID
}

// holds reports whether n's own link is l — over body, where n is a first
// link; longer prefixes answer for the body through their parents.
func (n *node) holds(l Link, body []byte) bool {
	return n.signer == l.Signer && bytes.Equal(n.owned[n.bodyLen:], l.Sig) &&
		(n.parent != nil || bytes.Equal(n.owned[:n.bodyLen], body))
}

// is reports whether n is exactly the prefix c over body: the comparison
// every acceptance from the cache rests on.
func (n *node) is(c Chain, body []byte) bool {
	for i := len(c) - 1; i >= 0; i-- {
		if n == nil || !n.holds(c[i], body) {
			return false
		}
		n = n.parent
	}
	return n == nil
}

// NewCachedVerifier wraps v with an empty verified-prefix cache. The cache
// is scoped to v: never reuse a CachedVerifier across signature schemes (two
// schemes can disagree about the same bytes) without a Reset.
func NewCachedVerifier(v Verifier) *CachedVerifier {
	cv := new(CachedVerifier)
	cv.Reset(v)
	return cv
}

// Reset empties the cache for a run verifying through v: no prefix, counter
// or sink outlives it, so that run pays cryptography for every link it has
// not verified itself. The chunks an earlier run carved are zeroed and
// carved again. A zero CachedVerifier is ready for use after Reset.
func (cv *CachedVerifier) Reset(v Verifier) { cv.ResetFor(v, 0) }

// ResetFor is Reset for a run expected to verify about the given number of
// prefixes — a run of n processors verifies about n, mostly one signature
// each — so that a cold cache makes its index for that many at once and
// carves its first prefixes from one chunk of that many, instead of growing
// both by doubling.
func (cv *CachedVerifier) ResetFor(v Verifier, prefixes int) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if cv.index == nil {
		cv.seed, cv.index = maphash.MakeSeed(), make(map[uint64]*node, prefixes)
	}
	cv.expect = prefixes
	clear(cv.index)
	clear(cv.nodes)
	clear(cv.bytes)
	cv.Verifier, cv.nodes, cv.bytes, cv.sink = v, cv.nodes[:0], cv.bytes[:0], nil
	cv.hits.Store(0)
	cv.misses.Store(0)
}

// Stats returns how many chain links were accepted from the cache (hits) and
// how many were cryptographically verified (misses).
func (cv *CachedVerifier) Stats() (hits, misses int64) {
	return cv.hits.Load(), cv.misses.Load()
}

// SetTrace attaches a sink that receives one KindVerifyHit event per chain
// verification that skipped links via the cache and one KindVerifyMiss event
// per verification that paid cryptography (Sigs carries the link counts).
// Call before the run starts; the sink itself must be safe for whatever
// concurrency the verifier sees (the single-threaded engine needs none).
func (cv *CachedVerifier) SetTrace(s trace.Sink) { cv.sink = s }

// The fingerprint of a prefix is the fingerprint of the prefix one link
// shorter (of the body, for the first link) folded with the link: xor in the
// link's hash, multiply by an odd constant. Both steps are bijections of
// uint64, which is what unfold undoes.
const (
	foldMul = 0x9e3779b97f4a7c15
	foldInv = 0xf1de83e19937733d // foldMul · foldInv ≡ 1 (mod 2⁶⁴)
)

// linkHash is what a link contributes to a fingerprint.
func (cv *CachedVerifier) linkHash(l Link) uint64 {
	return maphash.Bytes(cv.seed, l.Sig) ^ uint64(uint32(l.Signer))*foldMul
}

// fold extends the fingerprint f of a prefix by the link l that follows it.
func (cv *CachedVerifier) fold(f uint64, l Link) uint64 { return (f ^ cv.linkHash(l)) * foldMul }

// unfold takes the fingerprint f of a prefix ending in l back to the
// fingerprint of the prefix without it.
func (cv *CachedVerifier) unfold(f uint64, l Link) uint64 { return f*foldInv ^ cv.linkHash(l) }

// fingerprint folds the whole of c over body.
func (cv *CachedVerifier) fingerprint(c Chain, body []byte) uint64 {
	f := maphash.Bytes(cv.seed, body)
	for _, l := range c {
		f = cv.fold(f, l)
	}
	return f
}

// find returns the node of the verified prefix c over body, whose
// fingerprint is f, or nil if that prefix never verified.
func (cv *CachedVerifier) find(f uint64, c Chain, body []byte) *node {
	for n := cv.index[f]; n != nil; n = n.next {
		if n.is(c, body) {
			return n
		}
	}
	return nil
}

// insert records that the prefix made of parent's links and then l verified
// over body, under fingerprint f, and returns its node. Every prefix has at
// most one node — a peer that verified the same links concurrently may have
// got here first — so comparing parent pointers compares whole prefixes.
func (cv *CachedVerifier) insert(f uint64, parent *node, l Link, body []byte) *node {
	head := cv.index[f]
	for n := head; n != nil; n = n.next {
		if n.parent == parent && n.holds(l, body) {
			return n
		}
	}
	if parent != nil {
		body = nil
	}
	// A chunk that runs out is followed by one for as many prefixes again as
	// the cache holds, or as the run was sized for, within bounds, at 64
	// bytes each.
	chunk := min(max(len(cv.index), cv.expect, 32), 1<<10)
	size := len(body) + len(l.Sig)
	if size > cap(cv.bytes)-len(cv.bytes) {
		cv.bytes = make([]byte, 0, max(size, 64*chunk))
	}
	owned := cv.bytes[len(cv.bytes):][:size:size]
	cv.bytes = cv.bytes[:len(cv.bytes)+size]
	copy(owned[copy(owned, body):], l.Sig)
	if len(cv.nodes) == cap(cv.nodes) {
		cv.nodes = make([]node, 0, chunk)
	}
	cv.nodes = cv.nodes[:len(cv.nodes)+1]
	n := &cv.nodes[len(cv.nodes)-1]
	*n = node{parent: parent, next: head, owned: owned, bodyLen: int32(len(body)), signer: l.Signer}
	cv.index[f] = n
	return n
}

// verifyChain checks c over body, skipping the longest prefix already known
// to verify. Chain.Verify dispatches here when handed a *CachedVerifier.
func (cv *CachedVerifier) verifyChain(c Chain, body []byte) error {
	if len(c) == 0 {
		return nil
	}
	f := cv.fingerprint(c, body)
	// Longest verified prefix: the chain itself first, then one link shorter
	// at a time. A node exists only together with its parents, so the first
	// confirmed prefix is the longest. Afterwards at is its node (nil for no
	// prefix) and f its fingerprint.
	var at *node
	start := len(c)
	cv.mu.RLock()
	for ; start > 0; start-- {
		if at = cv.find(f, c[:start], body); at != nil {
			break
		}
		f = cv.unfold(f, c[start-1])
	}
	cv.mu.RUnlock()
	cv.hits.Add(int64(start))
	if cv.sink != nil && start > 0 {
		cv.sink.Emit(trace.Event{Kind: trace.KindVerifyHit, From: ident.None, To: ident.None, Sigs: start})
	}
	if start == len(c) {
		return nil
	}

	w := inputs.Get().(*wire.Writer)
	defer inputs.Put(w)
	checked := 0
	for i := start; i < len(c); i++ {
		cv.misses.Add(1)
		checked++
		if !cv.Verifier.Verify(c[i].Signer, signingInput(w, body, c[:i]), c[i].Sig) {
			if cv.sink != nil {
				cv.sink.Emit(trace.Event{Kind: trace.KindVerifyMiss, From: c[i].Signer, To: ident.None, Sigs: checked})
			}
			return linkError(i, c[i].Signer)
		}
	}
	if cv.sink != nil {
		cv.sink.Emit(trace.Event{Kind: trace.KindVerifyMiss, From: ident.None, To: ident.None, Sigs: checked})
	}
	cv.mu.Lock()
	for _, l := range c[start:] {
		f = cv.fold(f, l)
		at = cv.insert(f, at, l, body)
	}
	cv.mu.Unlock()
	return nil
}
