package metrics_test

import (
	"strings"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/metrics"
)

func TestCorrectFaultySplit(t *testing.T) {
	var c metrics.Collector
	c.Reset(ident.NewSet(2))
	c.OnSend(1, 0, 2, 2, 100)
	c.OnSend(1, 2, 5, 3, 50) // faulty
	c.OnSend(2, 1, 1, 1, 10)

	r := c.Report()
	if r.MessagesCorrect != 2 || r.MessagesFaulty != 1 {
		t.Fatalf("messages %d/%d", r.MessagesCorrect, r.MessagesFaulty)
	}
	if r.SignaturesCorrect != 3 || r.SignaturesFaulty != 5 {
		t.Fatalf("signatures %d/%d", r.SignaturesCorrect, r.SignaturesFaulty)
	}
	if r.BytesCorrect != 110 {
		t.Fatalf("bytes %d", r.BytesCorrect)
	}
	if r.MaxMessageBytes != 100 {
		t.Fatalf("max message %d", r.MaxMessageBytes)
	}
	if r.Phases != 2 {
		t.Fatalf("phases %d", r.Phases)
	}
	// DistinctSigners accumulates only over correct senders: 2 (p0) + 1 (p1);
	// the faulty sender's 3 distinct signers are excluded.
	if r.DistinctSigners != 3 {
		t.Fatalf("distinct signers %d, want 3", r.DistinctSigners)
	}
}

func TestPerPhaseSeries(t *testing.T) {
	var c metrics.Collector
	c.OnSend(3, 0, 1, 1, 5)
	c.OnSend(3, 1, 0, 0, 5)
	c.OnSend(5, 0, 2, 2, 5)
	r := c.Report()
	if len(r.PerPhase) != 6 {
		t.Fatalf("per-phase length %d", len(r.PerPhase))
	}
	if r.PerPhase[3].MessagesCorrect != 2 || r.PerPhase[5].SignaturesCorrect != 2 {
		t.Fatal("per-phase counters wrong")
	}
	if r.PerPhase[4].MessagesCorrect != 0 {
		t.Fatal("phantom phase counts")
	}
}

func TestReportSnapshotIsolated(t *testing.T) {
	var c metrics.Collector
	c.OnSend(1, 0, 0, 0, 1)
	r1 := c.Report()
	c.OnSend(2, 0, 0, 0, 1)
	if r1.MessagesCorrect != 1 || len(r1.PerPhase) != 2 {
		t.Fatal("snapshot mutated by later sends")
	}
}

func TestRendering(t *testing.T) {
	var c metrics.Collector
	c.OnSend(1, 0, 1, 1, 42)
	r := c.Report()
	if s := r.String(); !strings.Contains(s, "msgs(correct)=1") || !strings.Contains(s, "signers=1") {
		t.Fatalf("summary %q", s)
	}
	if tbl := r.Table(); !strings.Contains(tbl, "phase") || !strings.Contains(tbl, "1") {
		t.Fatalf("table %q", tbl)
	}
}
