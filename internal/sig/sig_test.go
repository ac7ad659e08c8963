package sig_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"byzex/internal/ident"
	"byzex/internal/sig"
	"byzex/internal/wire"
)

func schemes(t *testing.T, n int) map[string]sig.Scheme {
	t.Helper()
	ed, err := sig.NewEd25519(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]sig.Scheme{
		"hmac":    sig.NewHMAC(n, 7),
		"ed25519": ed,
	}
}

func TestSignVerify(t *testing.T) {
	for name, s := range schemes(t, 4) {
		t.Run(name, func(t *testing.T) {
			signer, err := s.Signer(1)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("message")
			tag := signer.Sign(msg)
			if !s.Verify(1, msg, tag) {
				t.Fatal("genuine signature rejected")
			}
			if s.Verify(2, msg, tag) {
				t.Fatal("signature accepted for wrong signer")
			}
			if s.Verify(1, []byte("other"), tag) {
				t.Fatal("signature accepted for wrong message")
			}
			tampered := append([]byte(nil), tag...)
			tampered[0] ^= 1
			if s.Verify(1, msg, tampered) {
				t.Fatal("tampered signature accepted")
			}
			if s.Verify(1, msg, nil) {
				t.Fatal("empty signature accepted")
			}
		})
	}
}

// withPlain is schemes plus the forgeable plain scheme, for the tests that
// hold for all three.
func withPlain(t *testing.T, n int) map[string]sig.Scheme {
	t.Helper()
	all := schemes(t, n)
	all["plain"] = sig.NewPlain(n)
	return all
}

func TestSignerOutOfRange(t *testing.T) {
	for name, s := range withPlain(t, 3) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Signer(3); !errors.Is(err, sig.ErrUnknownSigner) {
				t.Fatalf("out-of-range signer: %v, want ErrUnknownSigner", err)
			}
			if _, err := s.Signer(-1); !errors.Is(err, sig.ErrUnknownSigner) {
				t.Fatalf("negative signer: %v, want ErrUnknownSigner", err)
			}
			if s.Verify(99, []byte("m"), []byte("sig")) {
				t.Fatal("out-of-range verify accepted")
			}
		})
	}
}

// TestSignersMintedOnce pins that every scheme builds its n signers when it
// is constructed: Signer hands back the same one on every call without
// allocating, and a signer is safe to sign through from concurrent
// goroutines.
func TestSignersMintedOnce(t *testing.T) {
	for name, s := range withPlain(t, 3) {
		t.Run(name, func(t *testing.T) {
			first, err := s.Signer(2)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := s.Signer(2); again != first {
				t.Fatal("Signer(2) returned a different signer on the second call")
			}
			if other, _ := s.Signer(1); other == first || other.ID() != 1 {
				t.Fatalf("Signer(1) = %v, want a distinct signer for 1", other)
			}
			if allocs := testing.AllocsPerRun(10, func() { _, _ = s.Signer(2) }); allocs != 0 {
				t.Fatalf("Signer allocates %v times per call, want 0", allocs)
			}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						msg := []byte{byte(g), byte(i)}
						if !s.Verify(2, msg, first.Sign(msg)) {
							t.Error("concurrent signature rejected")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestHMACDeterministicPerSeed(t *testing.T) {
	a, b := sig.NewHMAC(3, 1), sig.NewHMAC(3, 1)
	sa, _ := a.Signer(0)
	sb, _ := b.Signer(0)
	if !bytes.Equal(sa.Sign([]byte("x")), sb.Sign([]byte("x"))) {
		t.Fatal("same seed produced different keys")
	}
	c := sig.NewHMAC(3, 2)
	sc, _ := c.Signer(0)
	if bytes.Equal(sa.Sign([]byte("x")), sc.Sign([]byte("x"))) {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestPlainSchemeIsForgeable(t *testing.T) {
	// The unauthenticated model: any processor can fabricate any tag.
	s := sig.NewPlain(4)
	signer, err := s.Signer(2)
	if err != nil {
		t.Fatal(err)
	}
	tag := signer.Sign([]byte("whatever"))
	if !s.Verify(2, []byte("anything-else"), tag) {
		t.Fatal("plain tag should verify for any message")
	}
	// Forged tag for another identity verifies too — by design.
	forged := []byte{0, 0, 0, 3}
	if !s.Verify(3, nil, forged) {
		t.Fatal("plain tags must be forgeable")
	}
	if s.Verify(2, nil, forged) {
		t.Fatal("tag for id 3 accepted for id 2")
	}
}

func TestChainAppendVerify(t *testing.T) {
	for name, s := range schemes(t, 5) {
		t.Run(name, func(t *testing.T) {
			body := []byte("chain body")
			var c sig.Chain
			for i := 0; i < 5; i++ {
				signer, _ := s.Signer(ident.ProcID(i))
				c = sig.Append(signer, body, c)
			}
			if err := c.Verify(s, body); err != nil {
				t.Fatalf("genuine chain rejected: %v", err)
			}
			if err := c.Verify(s, []byte("other body")); err == nil {
				t.Fatal("chain accepted for wrong body")
			}
			if !c.Distinct() {
				t.Fatal("distinct chain reported duplicate")
			}
			if c.DistinctCount() != 5 {
				t.Fatalf("distinct count %d != 5", c.DistinctCount())
			}
		})
	}
}

func TestChainTruncationDetected(t *testing.T) {
	s := sig.NewHMAC(4, 3)
	body := []byte("body")
	var c sig.Chain
	for i := 0; i < 3; i++ {
		signer, _ := s.Signer(ident.ProcID(i))
		c = sig.Append(signer, body, c)
	}
	// Dropping a middle link breaks later signatures (they sign the
	// prefix).
	cut := append(sig.Chain{}, c[0], c[2])
	if err := cut.Verify(s, body); err == nil {
		t.Fatal("chain with removed middle link accepted")
	}
	// Reordering breaks it too.
	swapped := append(sig.Chain{}, c[1], c[0], c[2])
	if err := swapped.Verify(s, body); err == nil {
		t.Fatal("reordered chain accepted")
	}
}

func TestChainLinkReuseAcrossPrefixesRejected(t *testing.T) {
	// A signature produced over prefix P cannot be replayed on top of a
	// different prefix P'.
	s := sig.NewHMAC(4, 3)
	body := []byte("body")
	s0, _ := s.Signer(0)
	s1, _ := s.Signer(1)
	s2, _ := s.Signer(2)

	c01 := sig.Append(s1, body, sig.Append(s0, body, nil))
	c2 := sig.Append(s2, body, nil)
	// Graft s1's link (signed over prefix [s0]) onto prefix [s2].
	grafted := append(c2.Clone(), c01[1])
	if err := grafted.Verify(s, body); err == nil {
		t.Fatal("grafted link accepted under a different prefix")
	}
}

func TestChainEncodeDecode(t *testing.T) {
	s := sig.NewHMAC(6, 9)
	s0, _ := s.Signer(0)
	sv := sig.NewSignedValue(s0, ident.V1)
	for i := 1; i < 4; i++ {
		signer, _ := s.Signer(ident.ProcID(i))
		sv = sv.CoSign(signer)
	}
	enc := sv.Marshal()
	if len(enc) != sv.EncodedLen() || cap(enc) != len(enc) {
		t.Fatalf("Marshal: %d bytes in a buffer of %d, EncodedLen says %d", len(enc), cap(enc), sv.EncodedLen())
	}
	decoded, err := sig.UnmarshalSignedValue(enc)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Value != sv.Value || len(decoded.Chain) != len(sv.Chain) {
		t.Fatal("round trip mismatch")
	}
	if err := decoded.Verify(s); err != nil {
		t.Fatalf("decoded chain invalid: %v", err)
	}
}

// TestEncodedLenIsExact covers what the round-trip tests' small chains do
// not: signers and values whose varints take two and more bytes, long
// signatures, empty chains.
func TestEncodedLenIsExact(t *testing.T) {
	for _, sv := range []sig.SignedValue{
		{},
		{Value: -1 << 40},
		{Value: 64, Chain: sig.Chain{{Signer: 63}, {Signer: 64, Sig: make([]byte, 127)}, {Signer: 1 << 20, Sig: make([]byte, 128)}}},
	} {
		if got := len(sv.Marshal()); got != sv.EncodedLen() {
			t.Errorf("%+v: %d bytes, EncodedLen %d", sv, got, sv.EncodedLen())
		}
		sb := sig.SignedBytes{Body: make([]byte, 200), Chain: sv.Chain}
		if got := len(sb.Marshal()); got != sb.EncodedLen() {
			t.Errorf("%+v: %d bytes, EncodedLen %d", sb, got, sb.EncodedLen())
		}
	}
}

// TestSlabCarvesChainsFromBlocks pins the slab's contract: chains decoded
// through one slab come out equal to separately decoded ones and do not
// overlap, a handful of blocks serves many chains, what is rewound is carved
// again, and a decode that fails gives its links back.
func TestSlabCarvesChainsFromBlocks(t *testing.T) {
	s := sig.NewHMAC(8, 3)
	s0, _ := s.Signer(0)
	sv := sig.NewSignedValue(s0, ident.V1)
	var encs [][]byte
	for i := 1; i < 8; i++ {
		signer, _ := s.Signer(ident.ProcID(i))
		sv = sv.CoSign(signer)
		encs = append(encs, sv.Marshal())
	}
	decode := func(slab *sig.Slab, enc []byte) sig.SignedValue {
		r := wire.NewReader(enc)
		out := sig.DecodeSignedValue(r, slab)
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	var slab sig.Slab
	var kept []sig.SignedValue
	allocs := testing.AllocsPerRun(1, func() {
		kept = kept[:0]
		for round := 0; round < 20; round++ {
			for _, enc := range encs {
				kept = append(kept, decode(&slab, enc))
			}
		}
	})
	if allocs > 24 { // 20×7 chains, 700 links: blocks of up to 512, and kept's growth
		t.Errorf("decoding %d chains through a slab made %v allocations", len(kept), allocs)
	}
	seen := make(map[*sig.Link]bool)
	for i, got := range kept {
		if err := got.Verify(s); err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
		if want := decode(new(sig.Slab), encs[i%len(encs)]); len(got.Chain) != len(want.Chain) {
			t.Fatalf("chain %d: %d links through the shared slab, %d through a fresh one", i, len(got.Chain), len(want.Chain))
		}
		for j := range got.Chain {
			if seen[&got.Chain[j]] {
				t.Fatalf("chain %d shares link %d with an earlier chain", i, j)
			}
			seen[&got.Chain[j]] = true
		}
	}

	mark := slab.Mark()
	first := decode(&slab, encs[2])
	slab.Rewind(mark)
	if again := decode(&slab, encs[2]); &again.Chain[0] != &first.Chain[0] {
		t.Error("links handed back with Rewind were not carved again")
	}
	slab.Rewind(mark)
	r := wire.NewReader(encs[2][:len(encs[2])-1])
	if c := sig.DecodeSignedValue(r, &slab); c.Chain != nil || r.Err() == nil {
		t.Fatalf("truncated chain decoded: %v, %v", c, r.Err())
	}
	if slab.Mark() != mark {
		t.Errorf("a failed decode left the slab at %d, not back at %d", slab.Mark(), mark)
	}
}

func TestSignedValueTamperDetected(t *testing.T) {
	s := sig.NewHMAC(3, 1)
	s0, _ := s.Signer(0)
	sv := sig.NewSignedValue(s0, ident.V1)
	bad := sv
	bad.Value = ident.V0
	if err := bad.Verify(s); err == nil {
		t.Fatal("value swap accepted")
	}
}

func TestSignedBytesRoundTrip(t *testing.T) {
	s := sig.NewHMAC(3, 1)
	s0, _ := s.Signer(0)
	s1, _ := s.Signer(1)
	sb := sig.NewSignedBytes(s0, []byte("payload")).CoSign(s1)
	enc := sb.Marshal()
	if len(enc) != sb.EncodedLen() || cap(enc) != len(enc) {
		t.Fatalf("Marshal: %d bytes in a buffer of %d, EncodedLen says %d", len(enc), cap(enc), sb.EncodedLen())
	}
	decoded, err := unmarshalSignedBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Verify(s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded.Body, []byte("payload")) {
		t.Fatal("body mismatch")
	}
	if len(decoded.Chain) != 2 {
		t.Fatal("chain length mismatch")
	}
}

func TestEmptyChainRejected(t *testing.T) {
	s := sig.NewHMAC(2, 1)
	if err := (sig.SignedValue{Value: ident.V1}).Verify(s); err == nil {
		t.Fatal("empty chain accepted")
	}
	if err := (sig.SignedBytes{Body: []byte("x")}).Verify(s); err == nil {
		t.Fatal("empty bytes chain accepted")
	}
}

func TestQuickChainRoundTripAndForgery(t *testing.T) {
	scheme := sig.NewHMAC(8, 5)
	f := func(body []byte, signerIdx []uint8, flip uint16) bool {
		if len(body) == 0 || len(signerIdx) == 0 || len(signerIdx) > 8 {
			return true
		}
		var c sig.Chain
		for _, si := range signerIdx {
			signer, err := scheme.Signer(ident.ProcID(int(si) % 8))
			if err != nil {
				return false
			}
			c = sig.Append(signer, body, c)
		}
		if c.Verify(scheme, body) != nil {
			return false
		}
		// Round trip through the wire encoding.
		sb := sig.SignedBytes{Body: body, Chain: c}
		decoded, err := unmarshalSignedBytes(sb.Marshal())
		if err != nil || decoded.Verify(scheme) != nil {
			return false
		}
		// Any single bit flip in a signature must invalidate the chain.
		link := int(flip) % len(c)
		byteIdx := (int(flip) / len(c)) % len(c[link].Sig)
		c[link].Sig[byteIdx] ^= 1
		defer func() { c[link].Sig[byteIdx] ^= 1 }()
		return c.Verify(scheme, body) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
