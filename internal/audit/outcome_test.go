package audit

import (
	"errors"
	"strings"
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/sim"
)

// TestOutcomeNamesFirstOffender: an attack's outcome is core.CheckDecisions'
// verdict, so it reports the lowest-id violation; a later undecided
// processor must not overwrite an earlier disagreement or an earlier
// undecided one.
func TestOutcomeNamesFirstOffender(t *testing.T) {
	undecided := sim.Decision{}
	decided := func(v ident.Value) sim.Decision { return sim.Decision{Value: v, Decided: true} }
	for _, tc := range []struct {
		name      string
		decisions []sim.Decision
		want      error
		names     string
	}{
		{"disagreement-then-undecided", []sim.Decision{decided(1), decided(0), undecided}, core.ErrDisagreement, "p1"},
		{"all-undecided", []sim.Decision{undecided, undecided}, core.ErrNoDecision, "p0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := &core.Result{Sim: &sim.Result{Decisions: map[ident.ProcID]sim.Decision{}}, Faulty: ident.Set{}}
			for i, d := range tc.decisions {
				res.Sim.Decisions[ident.ProcID(i)] = d
			}
			out := attackOutcome(res, ident.None)
			if !errors.Is(out.Violation, tc.want) {
				t.Fatalf("violation %v, want %v", out.Violation, tc.want)
			}
			if msg := out.Violation.Error(); !strings.Contains(msg, ": "+tc.names) {
				t.Fatalf("violation %q does not name %s", msg, tc.names)
			}
		})
	}
}
