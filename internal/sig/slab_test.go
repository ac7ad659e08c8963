package sig_test

import (
	"bytes"
	mrand "math/rand"
	"slices"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sig"
)

// allSchemes is every scheme, the forgeable plain one included.
func allSchemes(t *testing.T, n int) map[string]sig.Scheme {
	out := schemes(t, n)
	out["plain"] = sig.NewPlain(n)
	return out
}

// TestSlabMessagesMatchThrowaway pins that carving changes where a message
// lives and nothing of its bytes: every slab form equals its one-shot
// wrapper, and AppendSign appends exactly what Sign returns.
func TestSlabMessagesMatchThrowaway(t *testing.T) {
	for name, s := range allSchemes(t, 5) {
		t.Run(name, func(t *testing.T) {
			var slab sig.Slab
			s0, _ := s.Signer(0)
			s1, _ := s.Signer(1)
			msg := []byte("body")
			if got, want := s1.AppendSign([]byte("pre"), msg), append([]byte("pre"), s1.Sign(msg)...); name != "ed25519" && !bytes.Equal(got, want) {
				t.Errorf("AppendSign = %x, want %x", got, want)
			}
			carved := slab.CoSign(s1, slab.SignValue(s0, ident.V1))
			oneShot := sig.NewSignedValue(s0, ident.V1).CoSign(s1)
			if name != "ed25519" && !bytes.Equal(slab.Marshal(carved), oneShot.Marshal()) {
				t.Errorf("carved %x, one-shot %x", slab.Marshal(carved), oneShot.Marshal())
			}
			if err := carved.Verify(s); err != nil {
				t.Fatal(err)
			}
			if got, want := slab.EncodeTagged(7, carved), sig.EncodeTagged(7, carved); !bytes.Equal(got, want) {
				t.Errorf("EncodeTagged: carved %x, one-shot %x", got, want)
			}
			back, err := slab.Unmarshal(slab.Marshal(carved))
			if err != nil || !bytes.Equal(back.Marshal(), carved.Marshal()) {
				t.Errorf("Unmarshal: %v, %v", back, err)
			}
			sb := slab.SignBytes(s1, msg)
			if err := sb.Verify(s); err != nil {
				t.Fatal(err)
			}
			if name != "ed25519" && !bytes.Equal(sb.Marshal(), sig.NewSignedBytes(s1, msg).Marshal()) {
				t.Error("SignBytes differs from NewSignedBytes")
			}
		})
	}
}

// TestSlabMessagesShareBlocks pins what carving buys: signing, co-signing
// and encoding many messages through one slab allocates its blocks and
// nothing per message, and no two messages share storage.
func TestSlabMessagesShareBlocks(t *testing.T) {
	s := sig.NewHMAC(8, 3)
	var slab sig.Slab
	var payloads [][]byte
	var chains []sig.SignedValue
	allocs := testing.AllocsPerRun(1, func() {
		for round := 0; round < 20; round++ {
			s0, _ := s.Signer(0)
			sv := slab.SignValue(s0, ident.Value(round))
			for i := 1; i < 8; i++ {
				signer, _ := s.Signer(ident.ProcID(i))
				sv = slab.CoSign(signer, sv)
				chains = append(chains, sv)
				payloads = append(payloads, slab.EncodeTagged(1, sv))
			}
		}
	})
	// 140 messages, 700 links, ~8 KB of signatures and payloads: a few
	// doubling blocks of each kind and the test's own slices.
	if allocs > 12 && !sig.RaceEnabled {
		t.Errorf("140 carved messages made %v allocations", allocs)
	}
	for i, sv := range chains {
		if err := sv.Verify(s); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if want := sig.EncodeTagged(1, sv); !bytes.Equal(payloads[i], want) {
			t.Fatalf("payload %d was overwritten: %x, want %x", i, payloads[i], want)
		}
		if cap(payloads[i]) != len(payloads[i]) || cap(sv.Chain) != len(sv.Chain) {
			t.Fatalf("message %d: an append could reach the next message's storage", i)
		}
	}
}

// TestDistinctMatchesMapOracle checks Distinct and DistinctCount against a
// map over random chains with and without repeated signers, some longer
// than any run's, and that neither allocates on a chain as long as a run's.
func TestDistinctMatchesMapOracle(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		c := make(sig.Chain, rng.Intn(40))
		if trial%10 == 0 {
			c = make(sig.Chain, rng.Intn(400))
		}
		span := 1 + rng.Intn(2*len(c)+1)
		for i := range c {
			c[i].Signer = ident.ProcID(rng.Intn(span))
		}
		if trial%2 == 0 { // a permutation: no repeats
			for i, p := range rng.Perm(len(c)) {
				c[i].Signer = ident.ProcID(p)
			}
		}
		seen := make(map[ident.ProcID]bool)
		for _, l := range c {
			seen[l.Signer] = true
		}
		if got := c.DistinctCount(); got != len(seen) {
			t.Fatalf("%v: DistinctCount %d, want %d", c.Signers(), got, len(seen))
		}
		if got := c.Distinct(); got != (len(seen) == len(c)) {
			t.Fatalf("%v: Distinct %v", c.Signers(), got)
		}
		if allocs := testing.AllocsPerRun(3, func() { _, _ = c.Distinct(), c.DistinctCount() }); allocs != 0 && len(c) <= 100 {
			t.Fatalf("Distinct and DistinctCount made %v allocations", allocs)
		}
	}
}

// TestInternSignersCarvesSortedLists pins the signer-list form Send takes:
// sorted, without duplicates, in storage a later list does not overwrite.
func TestInternSignersCarvesSortedLists(t *testing.T) {
	var slab sig.Slab
	var lists [][]ident.ProcID
	for k := 0; k < 100; k++ {
		ids := append(slab.SignerScratch(3), ident.ProcID(k+2), ident.ProcID(k), ident.ProcID(k+2))
		lists = append(lists, slab.InternSigners(ids))
	}
	for k, got := range lists {
		if want := []ident.ProcID{ident.ProcID(k), ident.ProcID(k + 2)}; !slices.Equal(got, want) {
			t.Fatalf("list %d = %v, want %v", k, got, want)
		}
	}
}
