package sig

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"byzex/internal/ident"
	"byzex/internal/wire"
)

// Chain-related errors.
var (
	// ErrEmptyChain indicates a chain with no links where one was required.
	ErrEmptyChain = errors.New("sig: empty chain")
	// ErrDuplicateSigner indicates the same processor signed twice in a
	// chain that requires distinct signers.
	ErrDuplicateSigner = errors.New("sig: duplicate signer in chain")
)

// Link is one signature in a chain: a signer identity plus its signature
// bytes. The i-th link signs the canonical encoding of the body together
// with links 0..i-1, so a chain commits to its order and cannot be
// truncated-and-extended undetectably.
type Link struct {
	Signer ident.ProcID
	Sig    []byte
}

// Chain is an ordered sequence of signatures over a message body. The
// paper's algorithms append signatures as messages are relayed; a "correct
// 1-message" in Algorithm 1, an "increasing message" in Algorithm 2, and a
// "valid message" in Algorithm 5 are all bodies with chains satisfying
// protocol-specific structural predicates on top of cryptographic validity.
type Chain []Link

// inputs recycles the writers signing inputs are built in. A Signer or a
// Verifier is handed bytes that are only valid for the length of the call.
var inputs = sync.Pool{New: func() any { return new(wire.Writer) }}

// signingInput builds in w, over whatever w held, the byte string that link
// number len(prefix) signs: the body followed by the canonical encoding of
// the preceding links.
func signingInput(w *wire.Writer, body []byte, prefix Chain) []byte {
	w.Reset()
	w.BytesField(body)
	prefix.Encode(w)
	return w.Bytes()
}

// Append extends the chain with a signature by s over body, on a throwaway
// slab (see Slab.Append); c is not modified.
func Append(s Signer, body []byte, c Chain) Chain { var sl Slab; return sl.Append(s, body, c) }

// Verify checks every link of the chain cryptographically. It does not
// impose structural predicates (distinctness, ordering); protocols layer
// those on top. When v is a *CachedVerifier, links covered by an
// already-verified prefix are accepted from the cache (see cache.go for the
// soundness argument).
func (c Chain) Verify(v Verifier, body []byte) error {
	if cv, ok := v.(*CachedVerifier); ok {
		return cv.verifyChain(c, body)
	}
	w := inputs.Get().(*wire.Writer)
	defer inputs.Put(w)
	for i, l := range c {
		if !v.Verify(l.Signer, signingInput(w, body, c[:i]), l.Sig) {
			return linkError(i, l.Signer)
		}
	}
	return nil
}

// linkError reports a failed link verification.
func linkError(i int, signer ident.ProcID) error {
	return fmt.Errorf("%w: link %d signer %v", ErrBadSignature, i, signer)
}

// Signers returns the chain's signer identities in chain order.
func (c Chain) Signers() []ident.ProcID {
	out := make([]ident.ProcID, len(c))
	for i, l := range c {
		out[i] = l.Signer
	}
	return out
}

// Has reports whether id appears among the chain's signers.
func (c Chain) Has(id ident.ProcID) bool {
	for _, l := range c {
		if l.Signer == id {
			return true
		}
	}
	return false
}

// Distinct reports whether all signers in the chain are distinct.
func (c Chain) Distinct() bool { return c.DistinctCount() == len(c) }

// DistinctCount returns the number of distinct signers in the chain. A
// correct chain is at most n links long and each link costs a signature
// check, so up to distinctScan links a quadratic scan is small beside
// verifying it, and allocates nothing; a longer one, which only a faulty
// sender builds, is counted in a sorted copy so its length cannot make the
// count quadratic.
func (c Chain) DistinctCount() int {
	if len(c) > distinctScan {
		ids := c.Signers()
		slices.Sort(ids)
		return len(slices.Compact(ids))
	}
	n := 0
	for i, l := range c {
		if !c[:i].Has(l.Signer) {
			n++
		}
	}
	return n
}

// distinctScan is the longest chain DistinctCount scans pairwise.
const distinctScan = 128

// Clone returns a deep-enough copy of the chain (links share signature
// bytes, which are never mutated).
func (c Chain) Clone() Chain {
	out := make(Chain, len(c))
	copy(out, c)
	return out
}

// Encode appends the chain's canonical encoding to w.
func (c Chain) Encode(w *wire.Writer) {
	w.Uint(uint64(len(c)))
	for _, l := range c {
		w.Proc(l.Signer)
		w.BytesField(l.Sig)
	}
}

// EncodedLen is the number of bytes Encode appends.
func (c Chain) EncodedLen() int {
	n := wire.UintLen(uint64(len(c)))
	for _, l := range c {
		n += wire.IntLen(int64(l.Signer)) + wire.BytesFieldLen(len(l.Sig))
	}
	return n
}

// DecodeChain reads a chain previously written with Encode, its links carved
// from s. Sig slices alias the reader's buffer rather than copying: every
// transport honours the sim.Node lifetime contract — a delivered payload is
// carved from blocks never written again, the in-memory engine's slab or a
// mesh peer's inbound blocks — so the alias outlives every use of the chain.
func DecodeChain(r *wire.Reader, s *Slab) Chain {
	n := r.Count(minLinkLen)
	if r.Err() != nil {
		return nil
	}
	s.ready()
	mark := s.Mark()
	out := s.links.Carve(n)[:0]
	for i := 0; i < n; i++ {
		signer := r.Proc()
		sigBytes := r.BytesField()
		if r.Err() != nil {
			s.Rewind(mark)
			return nil
		}
		out = append(out, Link{Signer: signer, Sig: sigBytes})
	}
	return out
}

// SignedValue is the ubiquitous "value plus signature chain" message body
// used by most of the paper's algorithms. Helpers here keep the per-protocol
// codecs small.
type SignedValue struct {
	Value ident.Value
	Chain Chain
}

// ValueBody returns the canonical body bytes for a bare agreement value;
// chains over values sign these bytes. Callers must not write to the result:
// the values wire encodes in one byte share theirs.
func ValueBody(v ident.Value) []byte {
	if i := int64(v) + oneByteValues/2; 0 <= i && i < oneByteValues {
		return oneByteBodies[i : i+1 : i+1]
	}
	w := wire.NewWriter(8)
	w.Value(v)
	return w.Bytes()
}

// oneByteValues is the number of values, centred on zero, whose encoding is
// a single byte; oneByteBodies is those encodings end to end.
const oneByteValues = 128

var oneByteBodies = func() []byte {
	w := wire.NewWriter(oneByteValues)
	for i := 0; i < oneByteValues; i++ {
		w.Value(ident.Value(i - oneByteValues/2))
	}
	return w.Bytes()
}()

// NewSignedValue signs value v as the first link of a fresh chain, on a
// throwaway slab (see Slab.SignValue).
func NewSignedValue(s Signer, v ident.Value) SignedValue { var sl Slab; return sl.SignValue(s, v) }

// CoSign returns a copy of sv with s's signature appended, on a throwaway
// slab (see Slab.CoSign).
func (sv SignedValue) CoSign(s Signer) SignedValue { var sl Slab; return sl.CoSign(s, sv) }

// Verify checks the chain cryptographically and that it is non-empty.
func (sv SignedValue) Verify(v Verifier) error {
	if len(sv.Chain) == 0 {
		return ErrEmptyChain
	}
	return sv.Chain.Verify(v, ValueBody(sv.Value))
}

// Encode appends the canonical encoding of sv to w.
func (sv SignedValue) Encode(w *wire.Writer) {
	w.Value(sv.Value)
	sv.Chain.Encode(w)
}

// EncodedLen is the number of bytes Encode appends.
func (sv SignedValue) EncodedLen() int {
	return wire.IntLen(int64(sv.Value)) + sv.Chain.EncodedLen()
}

// DecodeSignedValue reads a SignedValue previously written with Encode, its
// chain carved from s (see DecodeChain).
func DecodeSignedValue(r *wire.Reader, s *Slab) SignedValue {
	v := r.Value()
	c := DecodeChain(r, s)
	return SignedValue{Value: v, Chain: c}
}

// EncodeTagged is Slab.EncodeTagged on a throwaway slab.
func EncodeTagged(tag byte, sv SignedValue) []byte { var sl Slab; return sl.EncodeTagged(tag, sv) }

// DecodeTagged parses an EncodeTagged payload, its chain carved from s; ok
// is false on any mismatch, wantTag included. A caller that does not keep
// the result rewinds s to where it was.
func DecodeTagged(s *Slab, payload []byte, wantTag byte) (sv SignedValue, ok bool) {
	if len(payload) == 0 || payload[0] != wantTag {
		return SignedValue{}, false
	}
	r := wire.NewReader(payload[1:])
	sv = DecodeSignedValue(r, s)
	if r.Finish() != nil {
		return SignedValue{}, false
	}
	return sv, true
}

// Marshal returns the standalone canonical encoding of sv, on a throwaway
// slab (see Slab.Marshal).
func (sv SignedValue) Marshal() []byte { var sl Slab; return sl.Marshal(sv) }

// UnmarshalSignedValue decodes a standalone encoding produced by Marshal, its
// chain carved from a throwaway slab (see Slab.Unmarshal).
func UnmarshalSignedValue(b []byte) (SignedValue, error) { var sl Slab; return sl.Unmarshal(b) }
