package alg5_test

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
	"byzex/internal/protocols/alg5"
	"byzex/internal/trace"
)

// TestTraceDigests pins the JSONL trace of Algorithm 5, with and without its
// proof-of-work machinery, in each of its three modes — n = 2t+1 (Algorithm 2
// alone), 2t+1 < n < α (one fan-out phase) and n ≥ α (the block structure) —
// under no adversary, silent and crashing passives, an equivocating
// transmitter and a random one. A change that moves any send, payload byte,
// verify-hit/verify-miss or decision event changes a digest.
// testdata/trace_digests.txt holds one line per run; a change meant to move a
// trace replaces it with the lines this test reports.
func TestTraceDigests(t *testing.T) {
	var got []string
	for _, size := range []struct{ t, s, full int }{{2, 2, 40}, {3, 3, 64}} {
		alpha := alg5.Alpha(size.t)
		for _, n := range []int{2*size.t + 1, (2*size.t + 1 + alpha) / 2, size.full} {
			// The crash victims are the last t ids: core actives mid
			// Algorithm 2 in the small modes, passives between their first
			// and second replies of block λ in the full one.
			crashAt := size.t + 2
			if n >= alpha {
				crashAt = 3*size.t + 8
			}
			advs := []struct {
				name string
				adv  adversary.Adversary
			}{
				{"none", nil},
				{"silent", adversary.Silent{}},
				{"crash", adversary.Crash{CrashAfter: crashAt}},
				{"split-brain", adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(n / 2)}},
				{"chaos", adversary.Chaos{}},
			}
			for _, p := range []protocol.Protocol{alg5.Protocol{S: size.s}, alg5.Protocol{S: size.s, DisablePoW: true}} {
				for _, a := range advs {
					for _, v := range []ident.Value{ident.V0, ident.V1} {
						buf := trace.NewBuffer()
						_, err := core.Run(context.Background(), core.Config{
							Protocol: p, N: n, T: size.t, Value: v, Adversary: a.adv, Seed: 7, Trace: buf,
						})
						if err != nil {
							t.Fatalf("%s %s n=%d t=%d v=%v: %v", p.Name(), a.name, n, size.t, v, err)
						}
						h := sha256.New()
						if err := trace.WriteJSONL(h, buf.Events()); err != nil {
							t.Fatal(err)
						}
						got = append(got, fmt.Sprintf("%s %s n=%d t=%d v=%d %x", p.Name(), a.name, n, size.t, v, h.Sum(nil)[:8]))
					}
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
