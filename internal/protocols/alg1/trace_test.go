package alg1_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/trace"
)

// TestTraceDigests pins the JSONL trace of the Algorithm 1 family — alg1,
// alg1-multi and alg2, which runs alg1.Core first — under the adversaries
// that reach Core's rules: equivocating transmitters (two faces, and three
// for the multi-valued rule's two-slot cap), silent and crashing relays. A
// change to Core that moves any send, verify-hit/verify-miss or decision
// event changes a digest. testdata/trace_digests.txt holds one line per run;
// a change meant to move a trace replaces it with the lines this test
// reports.
func TestTraceDigests(t *testing.T) {
	rows := []struct {
		p      protocol.Protocol
		values []ident.Value // the transmitter's inputs, and the multi-faced personalities
	}{
		{alg1.Protocol{}, []ident.Value{0, 1}},
		{alg1.MultiProtocol{}, []ident.Value{0, 1, 5}},
		{alg2.Protocol{}, []ident.Value{0, 1}},
	}
	var got []string
	for _, row := range rows {
		for tt := 1; tt <= 3; tt++ {
			n := 2*tt + 1
			advs := []struct {
				name string
				adv  adversary.Adversary
			}{
				{"none", nil},
				{"split-brain", adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(n / 2)}},
				{"multi-faced", adversary.MultiFaced{Values: row.values}},
				{"silent", adversary.Silent{}},
				{"crash", adversary.Crash{CrashAfter: 2}},
			}
			for _, a := range advs {
				for _, v := range row.values {
					buf := trace.NewBuffer()
					_, err := core.Run(context.Background(), core.Config{
						Protocol: row.p, N: n, T: tt, Value: v, Adversary: a.adv, Seed: 7, Trace: buf,
					})
					if err != nil {
						t.Fatalf("%s %s t=%d v=%v: %v", row.p.Name(), a.name, tt, v, err)
					}
					h := sha256.New()
					if err := trace.WriteJSONL(h, buf.Events()); err != nil {
						t.Fatal(err)
					}
					got = append(got, fmt.Sprintf("%s %s t=%d v=%d %x", row.p.Name(), a.name, tt, v, h.Sum(nil)[:8]))
				}
			}
		}
	}

	data, err := os.ReadFile("testdata/trace_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.FieldsFunc(string(data), func(r rune) bool { return r == '\n' })
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(got):
			t.Errorf("missing run: want %q", want[i])
		case i >= len(want):
			t.Errorf("extra run: got %q", got[i])
		case got[i] != want[i]:
			t.Errorf("got %q, want %q", got[i], want[i])
		}
	}
}
