package audit_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"byzex/internal/audit"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
)

func TestExportImportRoundTrip(t *testing.T) {
	_, h, err := audit.Record(context.Background(), core.Config{
		Protocol: alg1.Protocol{}, N: 7, T: 3, Value: ident.V1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Export(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := audit.Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != h.N || back.Value != h.Value {
		t.Fatal("header mismatch")
	}
	if back.NumPhases() != h.NumPhases() {
		t.Fatalf("phases %d != %d", back.NumPhases(), h.NumPhases())
	}
	if back.Messages() != h.Messages() || back.Signatures() != h.Signatures() {
		t.Fatal("counts mismatch after round trip")
	}
	for ph := 1; ph <= back.NumPhases(); ph++ {
		a, b := h.PhaseEdges(ph), back.PhaseEdges(ph)
		if len(a) != len(b) {
			t.Fatalf("phase %d: %d vs %d edges", ph, len(a), len(b))
		}
		for i := range a {
			if a[i].From != b[i].From || a[i].To != b[i].To || !bytes.Equal(a[i].Label, b[i].Label) {
				t.Fatalf("phase %d edge %d differs", ph, i)
			}
		}
	}
	// A(p) computations agree on the imported copy.
	pa, sa, _ := audit.MinAP(h)
	pb, sb, _ := audit.MinAP(back)
	if pa != pb || sa.Len() != sb.Len() {
		t.Fatal("A(p) differs after round trip")
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	if _, err := audit.Import(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage imported")
	}
	if _, err := audit.Import(strings.NewReader(`{"n":0}`)); err == nil {
		t.Fatal("n=0 imported")
	}
	if _, err := audit.Import(strings.NewReader(`{"n":2,"phases":[[{"from":5,"to":0}]]}`)); err == nil {
		t.Fatal("out-of-range edge imported")
	}
}
