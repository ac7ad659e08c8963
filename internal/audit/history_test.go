package audit_test

import (
	"testing"
	"testing/quick"

	"byzex/internal/audit"
	"byzex/internal/ident"
	"byzex/internal/sim"
)

func edge(from, to ident.ProcID, signers ...ident.ProcID) audit.Edge {
	return audit.Edge{
		From: from, To: to,
		Label:    []byte{byte(from), byte(to)},
		Signers:  signers,
		SigTotal: len(signers),
	}
}

func TestAppendAndQuery(t *testing.T) {
	h := audit.New(4, 0, ident.V1)
	h.Append(1, edge(0, 1, 0))
	h.Append(1, edge(0, 2, 0))
	h.Append(2, edge(1, 2, 0, 1))

	if h.NumPhases() != 2 {
		t.Fatalf("phases %d", h.NumPhases())
	}
	if len(h.PhaseEdges(1)) != 2 || len(h.PhaseEdges(2)) != 1 {
		t.Fatal("edge counts wrong")
	}
	if h.PhaseEdges(3) != nil || h.PhaseEdges(-1) != nil {
		t.Fatal("out-of-range phases should be nil")
	}
	if h.Messages() != 3 {
		t.Fatalf("messages %d", h.Messages())
	}
	if h.Signatures() != 4 {
		t.Fatalf("signatures %d", h.Signatures())
	}
}

func TestFaultySendersExcluded(t *testing.T) {
	h := audit.New(3, 0, ident.V0)
	h.Faulty.Add(1)
	h.Append(1, edge(0, 2, 0))
	h.Append(1, edge(1, 2, 1, 1))
	if h.Messages() != 1 {
		t.Fatalf("messages %d, want 1 (faulty excluded)", h.Messages())
	}
	if h.Signatures() != 1 {
		t.Fatalf("signatures %d, want 1", h.Signatures())
	}
}

func TestIndividualSubhistory(t *testing.T) {
	h := audit.New(4, 0, ident.V1)
	h.Append(1, edge(0, 1))
	h.Append(1, edge(0, 2))
	h.Append(2, edge(2, 1))
	h.Append(3, edge(3, 1))

	ind := h.Individual(1, 2)
	if len(ind) != 3 { // phases 0..2
		t.Fatalf("individual length %d", len(ind))
	}
	if len(ind[1]) != 1 || ind[1][0].From != 0 {
		t.Fatal("phase 1 edge wrong")
	}
	if len(ind[2]) != 1 || ind[2][0].From != 2 {
		t.Fatal("phase 2 edge wrong")
	}
	// Phase 3 excluded by the k cutoff.
	full := h.Individual(1, 99)
	if len(full) != 4 || len(full[3]) != 1 {
		t.Fatal("full individual wrong")
	}
}

func TestSentBy(t *testing.T) {
	h := audit.New(3, 0, ident.V0)
	h.Append(1, edge(0, 1))
	h.Append(2, edge(0, 2))
	h.Append(2, edge(1, 2))
	sent := h.SentBy(0)
	if len(sent[1]) != 1 || len(sent[2]) != 1 {
		t.Fatal("SentBy(0) wrong")
	}
	if len(h.SentBy(2)[1])+len(h.SentBy(2)[2]) != 0 {
		t.Fatal("SentBy(2) should be empty")
	}
}

func TestAPSetDirectAndCarried(t *testing.T) {
	// p receives q's signature via a relay r: q ∈ A(p) even though q never
	// messaged p directly.
	h := audit.New(4, 0, ident.V0)
	h.Append(1, edge(1, 3, 1))    // q=1 signs to r=3
	h.Append(2, edge(3, 2, 1, 3)) // r=3 relays (carrying 1's signature) to p=2

	ap := audit.APSet(2, h)
	if !ap.Has(1) || !ap.Has(3) {
		t.Fatalf("A(p2) = %v, want {1,3}", ap.Sorted())
	}
	// And symmetric: 2 receives 1's signature, so 2 ∈ A(p1).
	ap1 := audit.APSet(1, h)
	if !ap1.Has(3) || !ap1.Has(2) {
		t.Fatalf("A(p1) = %v, want {2,3}", ap1.Sorted())
	}
}

func TestAPSetExcludesSelf(t *testing.T) {
	h := audit.New(3, 0, ident.V0)
	h.Append(1, edge(1, 2, 1))
	if audit.APSet(1, h).Has(1) {
		t.Fatal("A(p) contains p")
	}
}

func TestMinAP(t *testing.T) {
	h := audit.New(4, 0, ident.V0)
	// p1 exchanges with 2 partners; p2 and p3 with 1 each.
	h.Append(1, edge(2, 1, 2))
	h.Append(1, edge(3, 1, 3))
	p, set, err := audit.MinAP(h)
	if err != nil {
		t.Fatal(err)
	}
	// p2 and p3 each have |A| = 1; p1 has 2. The transmitter (0) is
	// excluded from the min.
	if set.Len() != 1 || (p != 2 && p != 3) {
		t.Fatalf("min A(%v) = %v", p, set.Sorted())
	}
	if _, _, err := audit.MinAP(); err == nil {
		t.Fatal("MinAP with no histories should fail")
	}
}

func TestOnSendRecordsEdges(t *testing.T) {
	h := audit.New(3, 0, ident.V1)
	h.Faulty.Add(2)
	h.OnSend(sim.Envelope{From: 0, To: 1, Phase: 1, Payload: []byte("x"), Signers: []ident.ProcID{0}, SigTotal: 1})
	h.OnSend(sim.Envelope{From: 2, To: 1, Phase: 2, Payload: []byte("y"), SigTotal: 0})
	if h.Messages() != 1 { // faulty sender excluded
		t.Fatalf("messages %d", h.Messages())
	}
	if got := h.PhaseEdges(1); len(got) != 1 || got[0].From != 0 || got[0].To != 1 || string(got[0].Label) != "x" {
		t.Fatalf("phase 1 edges %v", got)
	}
	if got := h.PhaseEdges(2); len(got) != 1 || got[0].From != 2 { // recorded, though not counted
		t.Fatalf("phase 2 edges %v", got)
	}
}

func TestOnSendCopiesBuffers(t *testing.T) {
	h := audit.New(2, 0, ident.V0)
	payload := []byte{1, 2, 3}
	h.OnSend(sim.Envelope{From: 0, To: 1, Phase: 1, Payload: payload})
	payload[0] = 99
	if h.PhaseEdges(1)[0].Label[0] == 99 {
		t.Fatal("OnSend aliases the sender's payload")
	}
}

func TestQuickMessageCountMatchesEdges(t *testing.T) {
	// Property: Messages() over a fault-free history equals the number of
	// appended edges, regardless of phases used.
	f := func(spec []uint8) bool {
		h := audit.New(8, 0, ident.V0)
		count := 0
		for i, b := range spec {
			from := ident.ProcID(b % 8)
			to := ident.ProcID((b / 8) % 8)
			if from == to {
				continue
			}
			h.Append(1+i%5, edge(from, to, from))
			count++
		}
		return h.Messages() == count && h.Signatures() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAPSymmetry(t *testing.T) {
	// Property: for single-signer edges, q ∈ A(p) whenever an edge carries
	// q's signature to p, and then p ∈ A(q) symmetrically... APSet is
	// defined symmetrically ("either receive the signature of p or p
	// receives their signatures"), so membership must be mutual.
	f := func(spec []uint8) bool {
		h := audit.New(8, 0, ident.V0)
		for _, b := range spec {
			from := ident.ProcID(b % 8)
			to := ident.ProcID((b / 8) % 8)
			if from == to {
				continue
			}
			h.Append(1, edge(from, to, from))
		}
		for p := ident.ProcID(0); p < 8; p++ {
			for _, q := range audit.APSet(p, h).Sorted() {
				if !audit.APSet(q, h).Has(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
