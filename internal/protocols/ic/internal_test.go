package ic

import (
	"testing"
	"testing/quick"

	"byzex/internal/ident"
	"byzex/internal/sig"
)

func TestIdentityRotation(t *testing.T) {
	const n = 7
	for k := 0; k < n; k++ {
		// The instance's transmitter is local 0.
		if localID(ident.ProcID(k), ident.ProcID(k), n) != 0 {
			t.Fatalf("instance %d transmitter not local 0", k)
		}
		for g := 0; g < n; g++ {
			l := localID(ident.ProcID(g), ident.ProcID(k), n)
			if int(l) < 0 || int(l) >= n {
				t.Fatalf("local id out of range: %v", l)
			}
			if globalID(l, ident.ProcID(k), n) != ident.ProcID(g) {
				t.Fatalf("rotation not invertible at (g=%d,k=%d)", g, k)
			}
		}
	}
}

func TestQuickRotationBijective(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%20 + 1
		k := ident.ProcID(int(kRaw) % n)
		var seen ident.Set
		for g := 0; g < n; g++ {
			if !seen.Add(localID(ident.ProcID(g), k, n)) {
				return false
			}
		}
		return seen.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDomainSeparation(t *testing.T) {
	// A signature produced inside instance 3 must not verify inside
	// instance 4, even for the same local identity and message.
	scheme := sig.NewHMAC(7, 9)
	inner, _ := scheme.Signer(5)

	// In instance 3, global 5 appears as local 2; in instance 4 as local 1.
	s3 := &instSigner{inner: inner, local: localID(5, 3, 7), inst: 3}
	v3 := &instVerifier{inner: scheme, n: 7, inst: 3}
	v4 := &instVerifier{inner: scheme, n: 7, inst: 4}

	msg := []byte("payload")
	tag := s3.Sign(msg)
	if !v3.Verify(s3.ID(), msg, tag) {
		t.Fatal("genuine instance signature rejected")
	}
	if v4.Verify(localID(5, 4, 7), msg, tag) {
		t.Fatal("cross-instance replay verified")
	}
	// And claiming a different local identity in the same instance fails.
	if v3.Verify(s3.ID()+1, msg, tag) {
		t.Fatal("wrong local identity verified")
	}
}

func TestVerifierRejectsOutOfRange(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	v := &instVerifier{inner: scheme, n: 4, inst: 0}
	if v.Verify(ident.ProcID(9), []byte("m"), []byte("s")) {
		t.Fatal("out-of-range local id verified")
	}
	if v.Verify(ident.ProcID(-1), []byte("m"), []byte("s")) {
		t.Fatal("negative local id verified")
	}
}

func TestOwnInput(t *testing.T) {
	if OwnInput(0, 42) != 42 {
		t.Fatal("transmitter input not preserved")
	}
	if OwnInput(3, 42) != 1 || OwnInput(4, 42) != 0 {
		t.Fatal("derived inputs changed")
	}
}
