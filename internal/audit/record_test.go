package audit_test

import (
	"context"
	"slices"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/audit"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
)

// TestRecordMatchesReport: a recorded history counts exactly what the
// engine's metrics count — messages and signatures from correct senders —
// and carries the run's header and faulty set, fault-free and under a
// Byzantine coalition alike.
func TestRecordMatchesReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		adv  adversary.Adversary
	}{
		{"fault-free", nil},
		{"chaos", adversary.Chaos{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, h, err := audit.Record(context.Background(), core.Config{
				Protocol: alg1.Protocol{}, N: 7, T: 3, Value: ident.V1,
				Adversary: tc.adv, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Sim.Report
			if h.Messages() != rep.MessagesCorrect || h.Signatures() != rep.SignaturesCorrect {
				t.Fatalf("history counts %d msgs / %d sigs, report %d / %d",
					h.Messages(), h.Signatures(), rep.MessagesCorrect, rep.SignaturesCorrect)
			}
			if h.N != 7 || h.Transmitter != 0 || h.Value != ident.V1 || h.NumPhases() == 0 {
				t.Fatalf("header n=%d transmitter=%v value=%v phases=%d", h.N, h.Transmitter, h.Value, h.NumPhases())
			}
			if got, want := h.Faulty.Sorted(), res.Faulty.Sorted(); !slices.Equal(got, want) || (tc.adv != nil && len(got) == 0) {
				t.Fatalf("history faulty %v, run faulty %v", got, want)
			}
		})
	}
}
