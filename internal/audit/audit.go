// Package audit records a run and reasons about it, the way the paper does.
//
// The model is Section 2's: a History is a finite sequence of phases, each
// a labelled directed graph over the processors; phase 0 is the single
// inedge carrying the transmitter's value; the individual subhistory pH
// consists of the edges with target p; and a processor is correct if each
// of its outedges carries the label its correctness rule prescribes given
// its individual subhistory so far (Conformance). Record captures a core
// run as a History.
//
// Over recorded histories the package makes the two lower-bound theorems
// executable. The errors the tools print keep their text: "lowerbound:" for
// the constructions, "history:" for a failed transcript export.
//
// Theorem 1 (Ω(nt) signatures, authenticated): in the fault-free histories
// H (value 0) and G (value 1), every processor p must exchange signatures
// with at least t+1 processors — the set A(p) — or else the coalition A(p)
// can behave toward p as in H and toward everybody else as in G, making two
// correct processors decide differently. AuditSignatures measures min
// |A(p)| and the signature totals; ReplayAttack mounts the construction
// against protocols that violate the bound.
//
// Theorem 2 (Ω(n + t²) messages, general): a coalition B of ⌊1+t/2⌋
// processors that ignore the first ⌈t/2⌉ messages they receive (and never
// talk to each other) must nevertheless each be sent ⌈1+t/2⌉ messages by
// the correct processors, or else one of them could be correct-but-starved
// and decide the default. StarvationAudit measures the per-member counts;
// OmissionAttack mounts the companion starvation construction.
package audit

import (
	"context"
	"fmt"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
)

// Record runs cfg with a History observing every send (replacing any
// cfg.Observer) and returns the run's result with that history, its Faulty
// set taken from the result.
func Record(ctx context.Context, cfg core.Config) (*core.Result, *History, error) {
	h := New(cfg.N, cfg.Transmitter, cfg.Value)
	cfg.Observer = h
	res, err := core.Run(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	h.Faulty = res.Faulty
	return res, h, nil
}

// orDefault is the scheme every audit and attack runs under when the caller
// passes none: one fixed HMAC key set, so the histories one construction
// records and replays share signatures.
func orDefault(scheme sig.Scheme, n int) sig.Scheme {
	if scheme == nil {
		return sig.NewHMAC(n, 0xD01Ef)
	}
	return scheme
}

// recordFaultFree records the fault-free run with value v and requires it
// to reach agreement.
func recordFaultFree(ctx context.Context, p protocol.Protocol, n, t int, v ident.Value, scheme sig.Scheme) (*History, error) {
	res, h, err := Record(ctx, core.Config{Protocol: p, N: n, T: t, Value: v, Scheme: scheme})
	if err == nil {
		_, err = res.Decision(0, v)
	}
	if err != nil {
		return nil, fmt.Errorf("lowerbound: fault-free run v=%v: %w", v, err)
	}
	return h, nil
}

// SigAudit is the Theorem 1 measurement over the two fault-free histories.
type SigAudit struct {
	N, T int
	// HSignatures and GSignatures are the signature totals sent by correct
	// processors in the value-0 and value-1 histories.
	HSignatures, GSignatures int
	// Bound is the paper's n(t+1)/4.
	Bound int
	// MinAP is the processor with the smallest signature-exchange set, and
	// MinAPSize that set's cardinality. Correct protocols need
	// MinAPSize ≥ t+1.
	MinAP     ident.ProcID
	MinAPSize int
	// APSet is the minimal A(p) itself.
	APSet ident.Set

	h, g *History
}

// Satisfied reports whether the audited protocol respects Theorem 1's
// structural requirement (every A(p) has more than t members).
func (a *SigAudit) Satisfied() bool { return a.MinAPSize >= a.T+1 }

// AuditSignatures runs the protocol fault-free with both values under one
// shared signature scheme and computes the Theorem 1 quantities.
func AuditSignatures(ctx context.Context, p protocol.Protocol, n, t int, scheme sig.Scheme) (*SigAudit, error) {
	scheme = orDefault(scheme, n)
	h, err := recordFaultFree(ctx, p, n, t, ident.V0, scheme)
	if err != nil {
		return nil, err
	}
	g, err := recordFaultFree(ctx, p, n, t, ident.V1, scheme)
	if err != nil {
		return nil, err
	}
	minP, minSet, err := MinAP(h, g)
	if err != nil {
		return nil, err
	}
	return &SigAudit{
		N: n, T: t,
		HSignatures: h.Signatures(),
		GSignatures: g.Signatures(),
		Bound:       core.SigLowerBound(n, t),
		MinAP:       minP,
		MinAPSize:   minSet.Len(),
		APSet:       minSet,
		h:           h, g: g,
	}, nil
}

// AttackOutcome describes a mounted lower-bound attack.
type AttackOutcome struct {
	// Victim is the processor the construction isolates.
	Victim ident.ProcID
	// Faulty is the corrupted coalition.
	Faulty ident.Set
	// Violation is the Byzantine Agreement condition that broke (nil means
	// the protocol survived the attack).
	Violation error
	// Decisions are the correct processors' decisions for inspection.
	Decisions map[ident.ProcID]ident.Value
}

// Broke reports whether the attack violated Byzantine Agreement.
func (o *AttackOutcome) Broke() bool { return o.Violation != nil }

// ReplayAttack mounts Theorem 1's indistinguishability construction against
// the protocol: it finds a processor p with |A(p)| ≤ t over the fault-free
// histories H and G, corrupts exactly A(p), and has each member replay its
// H-sends toward p and its G-sends toward everybody else. If the protocol
// really needed fewer than t+1 signature partners per processor, p decides
// H's value while the rest decide G's.
//
// It returns ErrBoundRespected if every A(p) is large enough to make the
// construction inapplicable (the expected result for correct protocols).
func ReplayAttack(ctx context.Context, p protocol.Protocol, n, t int, scheme sig.Scheme) (*AttackOutcome, error) {
	scheme = orDefault(scheme, n)
	audit, err := AuditSignatures(ctx, p, n, t, scheme)
	if err != nil {
		return nil, err
	}
	if audit.Satisfied() {
		return nil, fmt.Errorf("%w: min |A(p)| = %d > t = %d", ErrBoundRespected, audit.MinAPSize, t)
	}

	victim := audit.MinAP
	coalition := audit.APSet
	schedules := make(map[ident.ProcID]*adversary.ReplaySchedule, coalition.Len())
	for _, q := range coalition.Sorted() {
		sched := &adversary.ReplaySchedule{
			Victim:   victim,
			ToVictim: make(map[int][]adversary.ReplayEdge),
			ToOthers: make(map[int][]adversary.ReplayEdge),
		}
		for phase, edges := range audit.h.SentBy(q) {
			for _, e := range edges {
				if e.To != victim {
					continue
				}
				sched.ToVictim[phase] = append(sched.ToVictim[phase], replayEdge(e))
			}
		}
		for phase, edges := range audit.g.SentBy(q) {
			for _, e := range edges {
				if e.To == victim {
					continue
				}
				sched.ToOthers[phase] = append(sched.ToOthers[phase], replayEdge(e))
			}
		}
		schedules[q] = sched
	}

	adv := adversary.Replay{FaultySet: coalition, Schedules: schedules}
	// Correct processors (including the transmitter, when it is not in the
	// coalition) live in the G-world: the transmitter's value is G's.
	res, err := core.Run(ctx, core.Config{
		Protocol: p, N: n, T: t, Value: ident.V1, Scheme: scheme,
		Adversary: adv, FaultyOverride: &coalition,
	})
	if err != nil {
		return nil, err
	}
	return attackOutcome(res, victim), nil
}

// ErrBoundRespected is returned by the attack constructors when the audited
// protocol satisfies the bound and the construction cannot be mounted.
var ErrBoundRespected = fmt.Errorf("lowerbound: protocol respects the bound; attack not applicable")

func replayEdge(e Edge) adversary.ReplayEdge {
	return adversary.ReplayEdge{
		To:       e.To,
		Label:    e.Label,
		Signers:  e.Signers,
		SigTotal: e.SigTotal,
	}
}

// attackOutcome reads a finished attack run, judged by core's one judge:
// the transmitter, p0, sent V1.
func attackOutcome(res *core.Result, victim ident.ProcID) *AttackOutcome {
	_, err := res.Decision(0, ident.V1)
	out := &AttackOutcome{Victim: victim, Faulty: res.Faulty, Violation: err, Decisions: make(map[ident.ProcID]ident.Value)}
	for id, d := range res.Sim.Decisions {
		if d.Decided && !res.Faulty.Has(id) {
			out.Decisions[id] = d.Value
		}
	}
	return out
}
