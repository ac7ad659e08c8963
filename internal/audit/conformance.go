package audit

import (
	"fmt"
	"sort"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// Conformance implements Section 2's correctness definition executably: a
// processor p is *correct at phase k* of history h if each of its phase-k
// outedges carries exactly the label the protocol's correctness rule
// prescribes when applied to p's individual subhistory of the first k-1
// phases. A processor is correct in h if it is correct at every phase.
//
// The checker replays each processor's deterministic state machine against
// its individual subhistory and compares the emitted labels against the
// recorded ones, returning for every processor the first phase at which it
// deviated (0 if it conformed throughout). It requires the signature
// scheme the history was recorded under (both provided schemes sign
// deterministically, so re-signing reproduces identical labels).
//
// This turns fault detection into a query on the recorded object: after a
// split-brain run, Conformance pinpoints exactly the equivocating
// processor.
func Conformance(h *History, proto protocol.Protocol, scheme sig.Scheme, t int) (map[ident.ProcID]int, error) {
	// The replayed processors are one run's: one builder makes them all.
	run, err := proto.NewRun(h.N, t)
	if err != nil {
		return nil, err
	}
	lastPhase := proto.Phases(h.N, t)
	out := make(map[ident.ProcID]int, h.N)
	for id := 0; id < h.N; id++ {
		p := ident.ProcID(id)
		deviation, err := replayOne(h, run, lastPhase, scheme, t, p)
		if err != nil {
			return nil, fmt.Errorf("audit: replaying %v: %w", p, err)
		}
		out[p] = deviation
	}
	return out, nil
}

// replayOne replays processor p and returns the first deviating phase (0
// for full conformance).
func replayOne(h *History, run protocol.Builder, lastPhase int, scheme sig.Scheme, t int, p ident.ProcID) (int, error) {
	signer, err := scheme.Signer(p)
	if err != nil {
		return 0, err
	}
	node, err := run.NewNode(protocol.NodeConfig{
		ID:          p,
		N:           h.N,
		T:           t,
		Transmitter: h.Transmitter,
		Value:       h.Value,
		Signer:      signer,
		Verifier:    scheme,
	})
	if err != nil {
		return 0, err
	}

	individual := h.Individual(p, h.NumPhases())
	sent := h.SentBy(p)

	for phase := 1; phase <= h.NumPhases()+1; phase++ {
		var emitted []Edge
		ctx := sim.NewContext(p, h.N, t, h.Transmitter, phase, lastPhase, func(e sim.Envelope) {
			emitted = append(emitted, Edge{From: e.From, To: e.To, Label: e.Payload})
		})
		var inbox []sim.Envelope
		if phase-1 >= 1 && phase-1 < len(individual) {
			for _, e := range individual[phase-1] {
				inbox = append(inbox, sim.Envelope{
					From: e.From, To: p, Phase: phase - 1,
					Payload: e.Label, Signers: e.Signers, SigTotal: e.SigTotal,
				})
			}
		}
		if err := node.Step(ctx, inbox); err != nil {
			return 0, err
		}
		var recorded Phase
		if phase < len(sent) {
			recorded = sent[phase]
		}
		if !sameLabels(emitted, recorded) {
			return phase, nil
		}
	}
	return 0, nil
}

// sameLabels compares two edge sets as multisets of (to, label).
func sameLabels(a []Edge, b Phase) bool {
	if len(a) != len(b) {
		return false
	}
	keyed := func(edges []Edge) []string {
		out := make([]string, len(edges))
		for i, e := range edges {
			out[i] = fmt.Sprintf("%d|%x", e.To, e.Label)
		}
		sort.Strings(out)
		return out
	}
	ka, kb := keyed(a), keyed([]Edge(b))
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
