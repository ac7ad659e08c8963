package sig_test

import (
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sig"
)

// FuzzUnmarshalSignedValue checks that arbitrary bytes never panic the
// decoder and that anything it accepts re-marshals canonically.
func FuzzUnmarshalSignedValue(f *testing.F) {
	scheme := sig.NewHMAC(4, 1)
	s0, _ := scheme.Signer(0)
	s1, _ := scheme.Signer(1)
	sv := sig.NewSignedValue(s0, ident.V1).CoSign(s1)
	f.Add(sv.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// Found by this target: 51 and 97 spelled in two bytes, then an empty chain.
	f.Add([]byte{0xd1, 0x00, 0x00})
	f.Add([]byte{0xe1, 0x00, 0x00})
	// And a signer that only fits a ProcID once its top bits are cut off.
	f.Add([]byte{0x00, 0x01, 0xb1, 0xb1, 0xb1, 0xb1, 0x30, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := sig.UnmarshalSignedValue(data)
		if err != nil {
			return
		}
		// Accepted input must round-trip to identical bytes (canonical
		// encoding — anything else would let one signed message have two
		// wire forms).
		re := decoded.Marshal()
		if string(re) != string(data) {
			t.Fatalf("non-canonical acceptance: %x -> %x", data, re)
		}
	})
}

// FuzzUnmarshalSignedBytes is the SignedBytes counterpart.
func FuzzUnmarshalSignedBytes(f *testing.F) {
	scheme := sig.NewHMAC(4, 1)
	s0, _ := scheme.Signer(0)
	f.Add(sig.NewSignedBytes(s0, []byte("body")).Marshal())
	f.Add([]byte{})
	// Found by this target: a body length of zero spelled in two bytes.
	f.Add([]byte{0x80, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := sig.UnmarshalSignedBytes(data)
		if err != nil {
			return
		}
		if string(decoded.Marshal()) != string(data) {
			t.Fatalf("non-canonical acceptance")
		}
	})
}

// FuzzChainVerifyNeverAcceptsUnsigned feeds structurally valid but
// unsigned chains to Verify: it must reject everything not produced by a
// real signer.
func FuzzChainVerifyNeverAcceptsUnsigned(f *testing.F) {
	f.Add([]byte("body"), []byte("sig-bytes"), int64(0))
	f.Fuzz(func(t *testing.T, body, sigBytes []byte, signer int64) {
		scheme := sig.NewHMAC(4, 1)
		c := sig.Chain{{Signer: ident.ProcID(signer % 4), Sig: sigBytes}}
		if err := c.Verify(scheme, body); err == nil {
			t.Fatalf("accepted fabricated signature %x", sigBytes)
		}
	})
}
