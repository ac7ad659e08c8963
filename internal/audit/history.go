package audit

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/sim"
)

// Edge is one labelled edge of a phase graph: a message From -> To with its
// label (payload bytes) and signature accounting.
type Edge struct {
	From  ident.ProcID
	To    ident.ProcID
	Label []byte

	// Signers are the distinct identities whose signatures appear in the
	// label; SigTotal counts signature links with multiplicity.
	Signers  []ident.ProcID
	SigTotal int
}

// Phase is the edge set of one phase, in send order.
type Phase []Edge

// History is a recorded execution: the phase-0 value plus the labelled
// phase graphs. Phases are 1-based; Phases[0] is unused padding so that
// Phases[k] is phase k.
type History struct {
	N           int
	Transmitter ident.ProcID
	Value       ident.Value
	Phases      []Phase
	// Faulty records which processors were faulty during the recorded run
	// (empty for the fault-free histories H and G of the proofs).
	Faulty ident.Set
}

// New creates an empty history for n processors with the phase-0 inedge
// labelled v.
func New(n int, transmitter ident.ProcID, v ident.Value) *History {
	return &History{
		N:           n,
		Transmitter: transmitter,
		Value:       v,
		Phases:      []Phase{nil},
	}
}

// NumPhases returns the highest recorded phase number.
func (h *History) NumPhases() int { return len(h.Phases) - 1 }

// Append records an edge in the given phase, extending the phase list as
// needed.
func (h *History) Append(phase int, e Edge) {
	for len(h.Phases) <= phase {
		h.Phases = append(h.Phases, nil)
	}
	h.Phases[phase] = append(h.Phases[phase], e)
}

// PhaseEdges returns the edges of phase k (nil if beyond the recording).
func (h *History) PhaseEdges(k int) Phase {
	if k < 0 || k >= len(h.Phases) {
		return nil
	}
	return h.Phases[k]
}

// Individual returns the individual subhistory pH_k for processor p: for
// each phase 1..k, the edges with target p, in recorded order. Index 0 of
// the result is unused padding, mirroring History.Phases.
func (h *History) Individual(p ident.ProcID, k int) []Phase {
	if k > h.NumPhases() {
		k = h.NumPhases()
	}
	out := make([]Phase, k+1)
	for ph := 1; ph <= k; ph++ {
		for _, e := range h.Phases[ph] {
			if e.To == p {
				out[ph] = append(out[ph], e)
			}
		}
	}
	return out
}

// SentBy returns, per phase, the edges with source p. Index 0 is padding.
func (h *History) SentBy(p ident.ProcID) []Phase {
	out := make([]Phase, h.NumPhases()+1)
	for ph := 1; ph <= h.NumPhases(); ph++ {
		for _, e := range h.Phases[ph] {
			if e.From == p {
				out[ph] = append(out[ph], e)
			}
		}
	}
	return out
}

// Messages counts edges whose source is not in the faulty set.
func (h *History) Messages() int {
	n := 0
	for _, ph := range h.Phases {
		for _, e := range ph {
			if !h.Faulty.Has(e.From) {
				n++
			}
		}
	}
	return n
}

// Signatures counts signature links on edges whose source is not faulty —
// the Theorem 1 quantity.
func (h *History) Signatures() int {
	n := 0
	for _, ph := range h.Phases {
		for _, e := range ph {
			if !h.Faulty.Has(e.From) {
				n += e.SigTotal
			}
		}
	}
	return n
}

// APSet computes the Theorem 1 set A(p) over one or more histories: the set
// of processors that either receive the signature of p or whose signature p
// receives, in at least one of the histories. Following the paper's
// technical assumption ("every message in an authenticated algorithm
// carries at least the signature of its sender" — and Corollary 1's reading
// of unauthenticated messages as carrying exactly the last sender's
// signature), every edge counts its immediate sender as an implicit signer
// in addition to the signers embedded in the label. p itself is excluded;
// callers that follow the proof exactly can remove the transmitter
// themselves.
func APSet(p ident.ProcID, hists ...*History) ident.Set {
	var out ident.Set
	for _, h := range hists {
		for _, ph := range h.Phases {
			for _, e := range ph {
				if e.To == p {
					// p receives the signatures of every signer in the
					// label, plus the immediate sender's.
					out.Add(e.From)
					for _, s := range e.Signers {
						out.Add(s)
					}
					continue
				}
				if e.From == p {
					// e carries p's implicit sender signature.
					out.Add(e.To)
					continue
				}
				// Does e carry p's embedded signature to e.To?
				for _, s := range e.Signers {
					if s == p {
						out.Add(e.To)
						break
					}
				}
			}
		}
	}
	out.Remove(p)
	return out
}

// MinAP returns the processor (excluding the transmitter) with the smallest
// A(p) over the given histories, together with that set. The proofs of
// Theorems 1 and 2 pick their victim this way.
func MinAP(hists ...*History) (ident.ProcID, ident.Set, error) {
	if len(hists) == 0 {
		return ident.None, ident.Set{}, fmt.Errorf("audit: no histories")
	}
	n := hists[0].N
	tr := hists[0].Transmitter
	best := ident.None
	var bestSet ident.Set
	for id := 0; id < n; id++ {
		p := ident.ProcID(id)
		if p == tr {
			continue
		}
		s := APSet(p, hists...)
		if best == ident.None || s.Len() < bestSet.Len() {
			best, bestSet = p, s
		}
	}
	return best, bestSet, nil
}

var _ sim.Observer = (*History)(nil)

// OnSend records one sent envelope as an edge of its phase, copying the
// payload and signer list out of the engine's reused buffers. It makes a
// History a sim.Observer; Record is the way to attach one to a run.
func (h *History) OnSend(e sim.Envelope) {
	h.Append(e.Phase, Edge{
		From:     e.From,
		To:       e.To,
		Label:    append([]byte(nil), e.Payload...),
		Signers:  append([]ident.ProcID(nil), e.Signers...),
		SigTotal: e.SigTotal,
	})
}
