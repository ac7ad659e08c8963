package sig_test

import (
	"runtime"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sig"
	"byzex/internal/wire"
)

// unmarshalSignedBytes decodes a standalone SignedBytes.Marshal encoding
// through sig.DecodeSignedBytes, the decoder every protocol calls.
func unmarshalSignedBytes(b []byte) (sig.SignedBytes, error) {
	var links sig.Slab
	r := wire.NewReader(b)
	sb := sig.DecodeSignedBytes(r, &links)
	if err := r.Finish(); err != nil {
		return sig.SignedBytes{}, err
	}
	return sb, nil
}

// claimedChain is an encoded chain that claims links links in front of fill
// zero bytes: a count the one-byte-per-element check lets through whenever
// links <= fill, although a link takes two bytes at the least. prefix is what
// precedes the chain in the enclosing encoding (a value, a body length).
func claimedChain(prefix byte, links, fill int) []byte {
	w := wire.NewWriter(8 + fill)
	w.Byte(prefix)
	w.Uint(uint64(links))
	return append(w.Bytes(), make([]byte, fill)...)
}

// TestHostileCountReservesNoMoreThanItsBytes pins the bound on what a decoder
// reserves before it has seen the elements: a payload of about 1 MiB claiming
// 2^20 links must not make DecodeChain set 32 MiB aside before the second link
// fails. What the bytes can really hold — a link per two bytes, 32 bytes of
// Link each — is the most any payload may cost.
func TestHostileCountReservesNoMoreThanItsBytes(t *testing.T) {
	const links = wire.MaxElem
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"SignedValue", func(b []byte) error { _, err := sig.UnmarshalSignedValue(b); return err }},
		{"SignedBytes", func(b []byte) error { _, err := unmarshalSignedBytes(b); return err }},
	} {
		for _, fill := range []int{links, 2 * links} {
			payload := claimedChain(0x00, links, fill)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(payload)
			runtime.ReadMemStats(&after)
			if (err == nil) != (fill == 2*links) {
				t.Errorf("%s: %d claimed links in %d bytes: err = %v", tc.name, links, fill, err)
			}
			if got, most := after.TotalAlloc-before.TotalAlloc, uint64(17*len(payload)); got > most {
				t.Errorf("%s: decoding %d bytes that claim %d links allocated %d bytes, want at most %d",
					tc.name, len(payload), links, got, most)
			}
		}
	}
}

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
	// A count only a link of one byte could honour (the hostile-count test's
	// shape, at a size the fuzzer can still mutate quickly).
	f.Add(claimedChain(0x00, 4096, 4096))

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
	// An empty body, then a count only a link of one byte could honour.
	f.Add(claimedChain(0x00, 4096, 4096))

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := unmarshalSignedBytes(data)
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
