package sig

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"byzex/internal/ident"
	"byzex/internal/trace"
)

// CachedVerifier wraps a Verifier with a verified-prefix cache for signature
// chains. The paper's relay-style algorithms re-verify a chain on every hop,
// and since link i signs over links 0..i-1 a chain of length L costs O(L²)
// signature checks over its lifetime. The cache remembers which exact chain
// prefixes have already verified over which exact body, so a relayed chain
// only pays crypto for the links appended since the last time it was seen —
// O(L) over the chain's lifetime.
//
// Soundness. The cache entry for the first i links of a chain over body is
//
//	kᵢ = SHA-256(0xC5 ‖ uvarint(len body) ‖ body ‖ link₁ ‖ … ‖ linkᵢ)
//	linkⱼ = varint(signerⱼ) ‖ uvarint(len sigⱼ) ‖ sigⱼ
//
// one hash of one byte stream, cut after link i. The stream is an injective
// encoding of (body, prefix): it opens with a domain byte (the rolling digest
// this replaced hashed streams opening with 0x00 or 0x01), both
// variable-length fields carry their length in front of them, and the
// varints are the canonical ones of encoding/binary, so a stream parses
// back to exactly one body and one sequence of (signer, signature) pairs —
// no byte can move between the body, a signer and a signature without
// changing a length in front of it. An entry therefore commits to the body,
// every signer identity, and every signature's exact bytes — the full signing
// input of every link in the prefix plus the link's own signature. Tampering
// with any byte of a cached prefix (a forged or truncated link, a swapped
// signer, a different body) changes the digest and misses the cache, forcing
// real cryptographic verification. Equal digests imply (by SHA-256 collision
// resistance) byte-identical (body, prefix) pairs, for which the verification
// outcome is identical by determinism of Verify. Only successful
// verifications are inserted, and a prefix only together with every shorter
// one, so the cache can never convert a rejection into an acceptance, and a
// hit on a chain's own key means every link of it verified.
//
// Cost. Recognising an L-link chain that already verified hashes its stream
// once: ⌈(2 + |body| + (2+|sig|)·L + 9)/64⌉ SHA-256 compressions for signer
// ids below 64 (one byte more per link up to 8191) — about 0.55·L for HMAC's
// 32-byte tags — and one finalisation, with no allocation. A miss hashes the
// stream a second time to cut the L−1 shorter keys out of it (a finalisation
// each; a single-link chain has none and skips the pass), finds the longest
// verified prefix among them, and pays the wrapped Verifier for the rest; its
// keys stay on the stack up to stackKeys links.
//
// The cache is safe for concurrent use; single-signature Verify calls pass
// through to the wrapped Verifier uncached (hashing the message would cost
// as much as verifying it).
type CachedVerifier struct {
	Verifier

	mu       sync.RWMutex
	verified map[prefixKey]struct{}

	hits   atomic.Int64
	misses atomic.Int64

	// sink receives KindVerifyHit/KindVerifyMiss events (nil disables).
	sink trace.Sink
}

var _ Verifier = (*CachedVerifier)(nil)

// NewCachedVerifier wraps v with an empty verified-prefix cache. The cache
// is scoped to v: never reuse a CachedVerifier across signature schemes (two
// schemes can disagree about the same bytes).
func NewCachedVerifier(v Verifier) *CachedVerifier {
	return &CachedVerifier{
		Verifier: v,
		verified: make(map[prefixKey]struct{}),
	}
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

// prefixKey is a verified-prefix cache key.
type prefixKey [sha256.Size]byte

// keyDomain is the first byte of every hashed key stream.
const keyDomain = 0xC5

// stackKeys is the chain length up to which a miss keeps its keys on the
// stack.
const stackKeys = 8

// hashPrefixes streams the key encoding of (body, c) through one SHA-256 and
// returns the key of the whole chain. With a non-nil keys (at least len(c) of
// them) it also cuts out every prefix's key: keys[i] commits to body and
// links 0..i.
// The hash never leaves this function, which is what lets the compiler keep
// its state on the stack.
func hashPrefixes(body []byte, c Chain, keys []prefixKey) (full prefixKey) {
	h := sha256.New()
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = keyDomain
	h.Write(binary.AppendUvarint(hdr[:1], uint64(len(body))))
	h.Write(body)
	for i, l := range c {
		h.Write(binary.AppendUvarint(binary.AppendVarint(hdr[:0], int64(l.Signer)), uint64(len(l.Sig))))
		h.Write(l.Sig)
		if keys != nil {
			h.Sum(keys[i][:0])
		}
	}
	if keys != nil {
		return keys[len(c)-1]
	}
	h.Sum(full[:0])
	return full
}

// has reports whether the prefix with this key verified before.
func (cv *CachedVerifier) has(k prefixKey) bool {
	cv.mu.RLock()
	_, ok := cv.verified[k]
	cv.mu.RUnlock()
	return ok
}

// verifyChain checks c over body, skipping the longest prefix already known
// to verify. Chain.Verify dispatches here when handed a *CachedVerifier.
func (cv *CachedVerifier) verifyChain(c Chain, body []byte) error {
	if len(c) == 0 {
		return nil
	}
	// Longest verified prefix. Insertions are monotone (a prefix is only
	// inserted after all shorter ones), so the chain's own key answers for
	// all of it, and past that scanning from the longest proper prefix down
	// and stopping at the first hit is exact.
	var (
		stack [stackKeys]prefixKey
		keys  []prefixKey
		start int
	)
	if full := hashPrefixes(body, c, nil); cv.has(full) {
		start = len(c)
	} else {
		if len(c) <= len(stack) {
			keys = stack[:len(c)]
		} else {
			keys = make([]prefixKey, len(c))
		}
		keys[len(c)-1] = full
		if len(c) > 1 {
			hashPrefixes(body, c[:len(c)-1], keys)
		}
		for i := len(c) - 1; i >= 1 && start == 0; i-- {
			if cv.has(keys[i-1]) {
				start = i
			}
		}
	}
	cv.hits.Add(int64(start))
	if cv.sink != nil && start > 0 {
		cv.sink.Emit(trace.Event{Kind: trace.KindVerifyHit, From: ident.None, To: ident.None, Sigs: start})
	}

	checked := 0
	for i := start; i < len(c); i++ {
		cv.misses.Add(1)
		checked++
		if !cv.Verifier.Verify(c[i].Signer, signingInput(body, c[:i]), c[i].Sig) {
			if cv.sink != nil {
				cv.sink.Emit(trace.Event{Kind: trace.KindVerifyMiss, From: c[i].Signer, To: ident.None, Sigs: checked})
			}
			return linkError(i, c[i].Signer)
		}
	}
	if cv.sink != nil && checked > 0 {
		cv.sink.Emit(trace.Event{Kind: trace.KindVerifyMiss, From: ident.None, To: ident.None, Sigs: checked})
	}
	if start < len(c) {
		cv.mu.Lock()
		for i := start; i < len(c); i++ {
			cv.verified[keys[i]] = struct{}{}
		}
		cv.mu.Unlock()
	}
	return nil
}
