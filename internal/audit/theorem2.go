package audit

import (
	"context"
	"fmt"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
)

// MsgAudit is the Theorem 2 measurement: the starved coalition B and the
// number of messages the correct processors were forced to send into it.
type MsgAudit struct {
	N, T int
	// B is the starved coalition (size ⌊1+t/2⌋).
	B ident.Set
	// IgnoreFirst is how many leading messages each member discarded
	// (⌈t/2⌉).
	IgnoreFirst int
	// PerMember counts messages from correct senders received by each B
	// member over the whole run.
	PerMember map[ident.ProcID]int
	// MinReceived is the smallest per-member count; Theorem 2 requires it
	// to reach ⌈1+t/2⌉ for any correct protocol.
	MinReceived int
	// RequiredPerMember is ⌈1+t/2⌉.
	RequiredPerMember int
	// TotalMessages counts all messages sent by correct processors in the
	// starvation history H'.
	TotalMessages int
	// Bound is the paper's max{(n-1)/2, (1+t/2)²}.
	Bound int
}

// Satisfied reports whether every starved member still received enough
// messages (the structural requirement Theorem 2 proves for correct
// protocols).
func (a *MsgAudit) Satisfied() bool { return a.MinReceived >= a.RequiredPerMember }

// StarvationAudit runs the Theorem 2 history H': the transmitter correctly
// sends 1 (the value no processor adopts without receiving messages), the
// coalition B ignores its first ⌈t/2⌉ incoming messages and never talks
// within B, and everything else is correct. It returns how many messages
// the correct processors sent to each member of B. Agreement among the
// correct processors must still hold (H' is a valid t-faulty history), and
// correct protocols must satisfy MinReceived ≥ ⌈1+t/2⌉.
func StarvationAudit(ctx context.Context, p protocol.Protocol, n, t int, scheme sig.Scheme) (*MsgAudit, error) {
	scheme = orDefault(scheme, n)
	const transmitter = ident.ProcID(0)
	b := adversary.StarveSet(n, t, transmitter)
	ignore := (t + 1) / 2
	adv := adversary.StarveB{B: b, IgnoreFirst: ignore}
	res, h, err := Record(ctx, core.Config{
		Protocol: p, N: n, T: t, Value: ident.V1, Scheme: scheme,
		Adversary: adv, FaultyOverride: &b,
	})
	if err != nil {
		return nil, err
	}
	// H' is a valid t-faulty history: the correct processors must agree on
	// the transmitter's value.
	if _, err := res.Decision(transmitter, ident.V1); err != nil {
		return nil, fmt.Errorf("lowerbound: starvation history broke the protocol itself: %w", err)
	}

	audit := &MsgAudit{
		N: n, T: t,
		B:                 b,
		IgnoreFirst:       ignore,
		PerMember:         make(map[ident.ProcID]int, b.Len()),
		RequiredPerMember: 1 + (t+1)/2,
		TotalMessages:     h.Messages(),
		Bound:             core.MsgLowerBound(n, t),
	}
	for _, q := range b.Sorted() {
		count := 0
		for _, ph := range h.Phases {
			for _, e := range ph {
				if e.To == q && !b.Has(e.From) {
					count++
				}
			}
		}
		audit.PerMember[q] = count
	}
	audit.MinReceived = -1
	for _, c := range audit.PerMember {
		if audit.MinReceived < 0 || c < audit.MinReceived {
			audit.MinReceived = c
		}
	}
	return audit, nil
}

// OmissionAttack mounts the companion "H”" construction: take the
// processors that send to a chosen victim in the fault-free value-1 run; if
// there are at most t of them, corrupt exactly that coalition and have it
// run the protocol correctly while withholding everything from the victim
// (the fault plan's drop rules, faultnet.Spec.WithOmission).
// The correct victim then sees an empty history and falls to the default
// decision while everybody else decides 1.
//
// Returns ErrBoundRespected if every processor receives messages from more
// than t distinct senders (so no coalition fits the fault budget).
func OmissionAttack(ctx context.Context, p protocol.Protocol, n, t int, scheme sig.Scheme) (*AttackOutcome, error) {
	scheme = orDefault(scheme, n)
	g, err := recordFaultFree(ctx, p, n, t, ident.V1, scheme)
	if err != nil {
		return nil, err
	}
	// Choose the victim with the fewest distinct senders, excluding the
	// transmitter.
	victim := ident.None
	var coalition ident.Set
	for id := 1; id < n; id++ {
		q := ident.ProcID(id)
		var senders ident.Set
		for _, ph := range g.Phases {
			for _, e := range ph {
				if e.To == q {
					senders.Add(e.From)
				}
			}
		}
		if victim == ident.None || senders.Len() < coalition.Len() {
			victim, coalition = q, senders
		}
	}
	if coalition.Len() > t {
		return nil, fmt.Errorf("%w: every processor hears from > t senders (min %d)", ErrBoundRespected, coalition.Len())
	}

	res, err := core.Run(ctx, core.Config{
		Protocol: p, N: n, T: t, Value: ident.V1, Scheme: scheme, FaultyOverride: &coalition,
		Faults: faultnet.MustCompile(faultnet.Spec{}.WithOmission(coalition, ident.NewSet(victim)), 0),
	})
	if err != nil {
		return nil, err
	}
	return attackOutcome(res, victim), nil
}
