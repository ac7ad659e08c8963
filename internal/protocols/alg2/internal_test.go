package alg2

import (
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sig"
)

// newTestCore builds a core for member `me` of a 2t+1 group.
func newTestCore(t *testing.T, tt int, me ident.ProcID, v ident.Value, scheme sig.Scheme) *Core {
	t.Helper()
	signer, err := scheme.Signer(me)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCore(ident.Range(2*tt+1), tt, me, v, signer, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return &c
}

// chainOver signs v through the given group members in order.
func chainOver(t *testing.T, scheme sig.Scheme, v ident.Value, signers ...ident.ProcID) sig.SignedValue {
	t.Helper()
	sv := sig.SignedValue{Value: v}
	for _, id := range signers {
		s, err := scheme.Signer(id)
		if err != nil {
			t.Fatal(err)
		}
		sv = sv.CoSign(s)
	}
	return sv
}

func TestClassifyIncreasing(t *testing.T) {
	const tt = 3
	scheme := sig.NewHMAC(2*tt+1, 5)
	c := newTestCore(t, tt, 5, ident.V1, scheme)
	c.committed, c.hasCommitted = ident.V1, true

	// Increasing for index 5: signers 0 < 2 < 4, all < 5.
	inc := chainOver(t, scheme, ident.V1, 0, 2, 4)
	c.classify(new(sig.Slab), inc.Marshal())
	if !c.hasBest || len(c.best.Chain) != 3 {
		t.Fatal("increasing message not adopted")
	}

	// Non-increasing order: rejected as m-candidate.
	c2 := newTestCore(t, tt, 5, ident.V1, scheme)
	c2.committed, c2.hasCommitted = ident.V1, true
	c2.classify(new(sig.Slab), chainOver(t, scheme, ident.V1, 2, 0).Marshal())
	if c2.hasBest {
		t.Fatal("non-increasing chain adopted")
	}

	// Signer ≥ my index: rejected.
	c3 := newTestCore(t, tt, 5, ident.V1, scheme)
	c3.committed, c3.hasCommitted = ident.V1, true
	c3.classify(new(sig.Slab), chainOver(t, scheme, ident.V1, 0, 6).Marshal())
	if c3.hasBest {
		t.Fatal("high-label signer accepted")
	}

	// Wrong value: rejected entirely.
	c4 := newTestCore(t, tt, 5, ident.V1, scheme)
	c4.committed, c4.hasCommitted = ident.V1, true
	c4.classify(new(sig.Slab), chainOver(t, scheme, ident.V0, 0, 2).Marshal())
	if c4.hasBest || c4.hasProof {
		t.Fatal("wrong-value chain accepted")
	}
}

func TestClassifyProofGrade(t *testing.T) {
	const tt = 2
	scheme := sig.NewHMAC(2*tt+1, 5)
	c := newTestCore(t, tt, 1, ident.V1, scheme)
	c.committed, c.hasCommitted = ident.V1, true

	// t other-signers suffice for proof grade, even when not increasing
	// for us (labels above ours).
	proof := chainOver(t, scheme, ident.V1, 3, 4)
	c.classify(new(sig.Slab), proof.Marshal())
	if !c.hasProof {
		t.Fatal("proof-grade message not held")
	}
	if c.hasBest {
		t.Fatal("non-increasing message adopted as m-candidate")
	}

	// Our own signature does not count toward the t others.
	c2 := newTestCore(t, tt, 1, ident.V1, scheme)
	c2.committed, c2.hasCommitted = ident.V1, true
	own := chainOver(t, scheme, ident.V1, 1, 3) // one other + self
	c2.classify(new(sig.Slab), own.Marshal())
	if c2.hasProof {
		t.Fatal("own signature counted toward proof threshold")
	}
}

func TestClassifyBestPrefersLongerChains(t *testing.T) {
	const tt = 3
	scheme := sig.NewHMAC(2*tt+1, 5)
	c := newTestCore(t, tt, 6, ident.V1, scheme)
	c.committed, c.hasCommitted = ident.V1, true

	c.classify(new(sig.Slab), chainOver(t, scheme, ident.V1, 0).Marshal())
	c.classify(new(sig.Slab), chainOver(t, scheme, ident.V1, 1, 2, 3).Marshal())
	c.classify(new(sig.Slab), chainOver(t, scheme, ident.V1, 4, 5).Marshal())
	if len(c.best.Chain) != 3 {
		t.Fatalf("best chain %d links, want 3", len(c.best.Chain))
	}
}

func TestClassifyRejectsOutsiderAndDuplicates(t *testing.T) {
	const tt = 2
	n := 2*tt + 1
	wide := sig.NewHMAC(n+2, 5)                  // scheme with extra identities
	signerOut, _ := wide.Signer(ident.ProcID(n)) // not in group
	me := ident.ProcID(4)
	meSigner, _ := wide.Signer(me)
	c, err := NewCore(ident.Range(n), tt, me, ident.V1, meSigner, wide)
	if err != nil {
		t.Fatal(err)
	}
	c.committed, c.hasCommitted = ident.V1, true

	sv := sig.SignedValue{Value: ident.V1}
	sv = sv.CoSign(signerOut)
	c.classify(new(sig.Slab), sv.Marshal())
	if c.hasBest || c.hasProof {
		t.Fatal("outsider signature accepted")
	}

	s0, _ := wide.Signer(0)
	dup := sig.SignedValue{Value: ident.V1}
	dup = dup.CoSign(s0).CoSign(s0)
	c.classify(new(sig.Slab), dup.Marshal())
	if c.hasBest {
		t.Fatal("duplicate-signer chain accepted")
	}
}
