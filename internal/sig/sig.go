// Package sig implements the authentication substrate assumed by the paper:
// a signature scheme in which every processor can sign its messages so that
// every receiver recognizes the signature, nobody can undetectably alter a
// signed message, and faulty processors may collude (pool their keys) but
// can never produce a signature of a correct processor.
//
// Three schemes are provided behind a common interface:
//
//   - HMAC: per-processor secret keys under a trusted registry, signatures
//     are HMAC-SHA256 tags. Fast; the default for simulations.
//   - Ed25519: real public-key signatures from crypto/ed25519, demonstrating
//     the system over an actual asymmetric scheme (the paper cites
//     Diffie-Hellman and RSA for this role).
//   - Plain: the unauthenticated model of Corollary 1 — every message
//     carries exactly the identity of its immediate sender and nothing can
//     be forwarded verifiably. Signing is free; verification only checks
//     the claimed sender tag.
//
// Unforgeability in the simulation is enforced structurally: the engine
// hands each node only its own Signer, and hands the adversary the Signers
// of the corrupted processors. Byzantine code can emit arbitrary bytes, but
// Verify rejects anything not produced through a Signer.
package sig

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"

	"byzex/internal/ident"
)

// Errors returned by chain and scheme validation.
var (
	// ErrBadSignature indicates a signature failed verification.
	ErrBadSignature = errors.New("sig: signature verification failed")
	// ErrUnknownSigner indicates a signer identity outside the registry.
	ErrUnknownSigner = errors.New("sig: unknown signer")
)

// Signer produces signatures for exactly one processor identity.
type Signer interface {
	// ID returns the identity this signer signs for.
	ID() ident.ProcID
	// AppendSign appends a signature over msg to dst and returns the
	// extended slice, growing it only when its capacity is short. msg is the
	// caller's to reuse once AppendSign returns: implementations must not
	// keep it.
	AppendSign(dst, msg []byte) []byte
	// Sign returns a signature over msg in storage of its own:
	// AppendSign(nil, msg).
	Sign(msg []byte) []byte
}

// Verifier checks signatures against claimed signer identities.
type Verifier interface {
	// Verify reports whether sigBytes is a valid signature by id over msg.
	// Neither slice may be kept past the call.
	Verify(id ident.ProcID, msg, sigBytes []byte) bool
}

// Scheme is a complete signature scheme for a fixed population of
// processors: it mints the n per-processor signers once, when it is built,
// and verifies any signature.
type Scheme interface {
	Verifier
	// Name identifies the scheme in reports ("hmac", "ed25519", "plain").
	Name() string
	// N returns the population size the scheme was instantiated for.
	N() int
	// Signer returns the signing handle for id: the same one on every call.
	Signer(id ident.ProcID) (Signer, error)
}

// ---------------------------------------------------------------------------
// HMAC scheme

// HMACScheme signs with per-processor secret keys under a trusted registry.
// Verification recomputes the tag using the registry's copy of the key, so
// only code holding a Signer (i.e. the processor itself, or the adversary
// for corrupted processors) can produce valid signatures.
type HMACScheme struct {
	signers []hmacSigner // one per processor, each holding its key
}

var _ Scheme = (*HMACScheme)(nil)

// NewHMAC creates an HMAC scheme for n processors and mints their signers.
// The seed makes key generation deterministic for reproducible runs;
// distinct seeds yield independent key sets.
func NewHMAC(n int, seed int64) *HMACScheme {
	rng := mrand.New(mrand.NewSource(seed))
	s := &HMACScheme{signers: make([]hmacSigner, n)}
	for i := range s.signers {
		s.signers[i].id = ident.ProcID(i)
		// math/rand Read never fails.
		_, _ = rng.Read(s.signers[i].key[:])
	}
	return s
}

// Name implements Scheme.
func (s *HMACScheme) Name() string { return "hmac" }

// N implements Scheme.
func (s *HMACScheme) N() int { return len(s.signers) }

// Signer implements Scheme.
func (s *HMACScheme) Signer(id ident.ProcID) (Signer, error) {
	if int(id) < 0 || int(id) >= len(s.signers) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSigner, id)
	}
	return &s.signers[id], nil
}

// Verify implements Verifier.
func (s *HMACScheme) Verify(id ident.ProcID, msg, sigBytes []byte) bool {
	if int(id) < 0 || int(id) >= len(s.signers) {
		return false
	}
	tag := hmacTag(&s.signers[id].key, id, msg)
	return hmac.Equal(tag[:], sigBytes)
}

type hmacSigner struct {
	id  ident.ProcID
	key [32]byte
}

func (h *hmacSigner) ID() ident.ProcID { return h.id }

func (h *hmacSigner) Sign(msg []byte) []byte { return h.AppendSign(nil, msg) }

func (h *hmacSigner) AppendSign(dst, msg []byte) []byte {
	tag := hmacTag(&h.key, h.id, msg)
	return append(dst, tag[:]...)
}

// hmacTag is HMAC-SHA256(key, id ‖ msg) for a 32-byte key; binding the
// signer identity into the tag keeps two processors that somehow shared a
// key from passing each other's signatures off. It is RFC 2104 written out over one stack-held hash, byte for byte
// crypto/hmac's result without the two hash states and two pads hmac.New
// allocates per call, and with no state for peer goroutines to share.
func hmacTag(key *[32]byte, id ident.ProcID, msg []byte) (tag [sha256.Size]byte) {
	var ipad, opad [sha256.BlockSize]byte
	copy(ipad[:], key[:])
	copy(opad[:], key[:])
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	h := sha256.New()
	h.Write(ipad[:])
	h.Write(binary.BigEndian.AppendUint32(tag[:0], uint32(id)))
	h.Write(msg)
	h.Sum(tag[:0])
	h.Reset()
	h.Write(opad[:])
	h.Write(tag[:])
	h.Sum(tag[:0])
	return tag
}

// ---------------------------------------------------------------------------
// Ed25519 scheme

// Ed25519Scheme signs with real public-key signatures. Private keys are held
// by the signers; the scheme verifies with the public keys alone.
type Ed25519Scheme struct {
	pub     []ed25519.PublicKey
	signers []edSigner
}

var _ Scheme = (*Ed25519Scheme)(nil)

// NewEd25519 creates an Ed25519 scheme for n processors and mints their
// signers, using rand as the entropy source (pass nil for crypto/rand).
func NewEd25519(n int, rand io.Reader) (*Ed25519Scheme, error) {
	s := &Ed25519Scheme{pub: make([]ed25519.PublicKey, n), signers: make([]edSigner, n)}
	for i := range s.signers {
		pub, priv, err := ed25519.GenerateKey(rand)
		if err != nil {
			return nil, fmt.Errorf("sig: generating ed25519 key %d: %w", i, err)
		}
		s.pub[i], s.signers[i] = pub, edSigner{id: ident.ProcID(i), key: priv}
	}
	return s, nil
}

// Name implements Scheme.
func (s *Ed25519Scheme) Name() string { return "ed25519" }

// N implements Scheme.
func (s *Ed25519Scheme) N() int { return len(s.pub) }

// Signer implements Scheme.
func (s *Ed25519Scheme) Signer(id ident.ProcID) (Signer, error) {
	if int(id) < 0 || int(id) >= len(s.signers) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSigner, id)
	}
	return &s.signers[id], nil
}

// Verify implements Verifier.
func (s *Ed25519Scheme) Verify(id ident.ProcID, msg, sigBytes []byte) bool {
	if int(id) < 0 || int(id) >= len(s.pub) {
		return false
	}
	if len(sigBytes) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(s.pub[id], msg, sigBytes)
}

type edSigner struct {
	id  ident.ProcID
	key ed25519.PrivateKey
}

func (e *edSigner) ID() ident.ProcID { return e.id }

func (e *edSigner) Sign(msg []byte) []byte { return e.AppendSign(nil, msg) }

// AppendSign copies the signature crypto/ed25519 returns, which has no form
// that signs in place.
func (e *edSigner) AppendSign(dst, msg []byte) []byte {
	return append(dst, ed25519.Sign(e.key, msg)...)
}

// ---------------------------------------------------------------------------
// Plain (unauthenticated) scheme

// PlainScheme models the unauthenticated setting of Corollary 1: a
// "signature" is just the sender's identity tag. Any processor can fabricate
// any other processor's tag, so forwarded information is never verifiable —
// a receiver can only trust the identity of the immediate sender, which the
// transport guarantees independently. Protocols that require unforgeable
// chains must not be run under this scheme; it exists so the unauthenticated
// baselines pay the same bookkeeping costs.
type PlainScheme struct {
	signers []plainSigner
}

var _ Scheme = (*PlainScheme)(nil)

// NewPlain creates a plain scheme for n processors and mints their signers.
func NewPlain(n int) *PlainScheme {
	s := &PlainScheme{signers: make([]plainSigner, n)}
	for i := range s.signers {
		s.signers[i].id = ident.ProcID(i)
	}
	return s
}

// Name implements Scheme.
func (s *PlainScheme) Name() string { return "plain" }

// N implements Scheme.
func (s *PlainScheme) N() int { return len(s.signers) }

// Signer implements Scheme.
func (s *PlainScheme) Signer(id ident.ProcID) (Signer, error) {
	if int(id) < 0 || int(id) >= len(s.signers) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownSigner, id)
	}
	return &s.signers[id], nil
}

// Verify implements Verifier. It accepts any correctly formatted tag for id:
// plain tags are forgeable by construction.
func (s *PlainScheme) Verify(id ident.ProcID, _ []byte, sigBytes []byte) bool {
	if int(id) < 0 || int(id) >= len(s.signers) {
		return false
	}
	return len(sigBytes) == 4 && binary.BigEndian.Uint32(sigBytes) == uint32(id)
}

type plainSigner struct {
	id ident.ProcID
}

func (p plainSigner) ID() ident.ProcID { return p.id }

func (p plainSigner) Sign(msg []byte) []byte { return p.AppendSign(nil, msg) }

func (p plainSigner) AppendSign(dst, _ []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(p.id))
}
