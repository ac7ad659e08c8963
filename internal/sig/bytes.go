package sig

import "byzex/internal/wire"

// SignedBytes is an arbitrary byte-string body carrying a signature chain.
// Algorithm 4 exchanges signed strings (not agreement values), and
// Algorithm 5's "strings" are signed [index, processor list] bodies, so the
// chain machinery must work over raw bodies as well as values.
type SignedBytes struct {
	Body  []byte
	Chain Chain
}

// NewSignedBytes signs body as the first link of a fresh chain, on a
// throwaway slab (see Slab.SignBytes).
func NewSignedBytes(s Signer, body []byte) SignedBytes { var sl Slab; return sl.SignBytes(s, body) }

// CoSign returns a copy with s's signature appended.
func (sb SignedBytes) CoSign(s Signer) SignedBytes {
	return SignedBytes{Body: sb.Body, Chain: Append(s, sb.Body, sb.Chain)}
}

// Verify checks the chain cryptographically and that it is non-empty.
func (sb SignedBytes) Verify(v Verifier) error {
	if len(sb.Chain) == 0 {
		return ErrEmptyChain
	}
	return sb.Chain.Verify(v, sb.Body)
}

// Encode appends the canonical encoding to w.
func (sb SignedBytes) Encode(w *wire.Writer) {
	w.BytesField(sb.Body)
	sb.Chain.Encode(w)
}

// EncodedLen is the number of bytes Encode appends.
func (sb SignedBytes) EncodedLen() int {
	return wire.BytesFieldLen(len(sb.Body)) + sb.Chain.EncodedLen()
}

// MinSignedBytesLen is the shortest encoding of a SignedBytes (an empty body
// and an empty chain): what a decoder of a list of them passes to
// wire.Reader.Count.
const MinSignedBytesLen = 2

// DecodeSignedBytes reads a SignedBytes previously written with Encode, its
// chain carved from s. The body aliases the reader's buffer under the same
// lifetime contract as DecodeChain: transports keep payload bytes alive for
// as long as the decoding node can reference them.
func DecodeSignedBytes(r *wire.Reader, s *Slab) SignedBytes {
	body := r.BytesField()
	c := DecodeChain(r, s)
	return SignedBytes{Body: body, Chain: c}
}

// Marshal returns the standalone canonical encoding.
func (sb SignedBytes) Marshal() []byte {
	w := wire.NewWriter(sb.EncodedLen())
	sb.Encode(w)
	return w.Bytes()
}
