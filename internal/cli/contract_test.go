package cli_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/bits"
	"os"
	"slices"
	"strings"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/trace"
)

// folded are the sizes, beyond a row's canonical one and its smallest at
// t=1, that a per-package sweep ran and this suite now owns.
var folded = map[string][]cli.Params{
	"dolev-strong": {{N: 5, T: 2}},
}

// TestContract is the registry's contract suite: what every row owes, with
// no test code of the row's own. Each row runs at its canonical size, at the
// smallest n its Check accepts at t=1 and at its folded sizes; at each size
// against the faulty sets of faultySets (FaultyOverride, Seed = the set's
// bitmask), every named adversary but "none" — "multi-faced" only where the
// protocol takes a non-binary value — and both values. Every run is judged
// by the row's class reading of the one judge, Class.Verdict of
// Result.Decision; a strawman row must break at least once.
//
// Each (row, size, adversary) pins one SHA-256 over its runs' concatenated
// JSONL traces: testdata/contract_digests.txt holds one line each, in
// registry order, and a change meant to move a trace replaces the row's
// lines with the ones this test reports.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("testdata/contract_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.FieldsFunc(string(data), func(r rune) bool { return r == '\n' })
	for _, line := range pinned {
		if _, err := cli.Lookup(strings.Fields(line)[0]); err != nil {
			t.Errorf("stale digest line %q: %v", line, err)
		}
	}
	for _, e := range cli.Registry() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			var got []string
			broken := 0
			for _, p := range contractSizes(t, e) {
				proto, err := cli.Protocol(e.Name, p)
				if err != nil {
					t.Fatal(err)
				}
				scheme, err := cli.Scheme(e.Scheme, cli.Params{N: p.N, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				_, err = core.NewSetup(core.Config{Protocol: proto, N: p.N, T: p.T, Value: 2, Scheme: scheme})
				multiValued := err == nil
				for _, name := range cli.AdversaryNames() {
					if name == "none" || name == "multi-faced" && !multiValued {
						continue
					}
					adv, err := cli.Adversary(name, p)
					if err != nil {
						t.Fatal(err)
					}
					h := sha256.New()
					for _, mask := range faultySets(p.N, p.T) {
						var faulty ident.Set
						for i := range p.N {
							if mask>>i&1 != 0 {
								faulty.Add(ident.ProcID(i))
							}
						}
						for _, v := range []ident.Value{ident.V0, ident.V1} {
							label := fmt.Sprintf("%s n=%d t=%d %s F=%v %v", e.Name, p.N, p.T, name, faulty.Sorted(), v)
							buf := trace.NewBuffer()
							res, err := core.Run(context.Background(), core.Config{
								Protocol: proto, N: p.N, T: p.T, Value: v, Scheme: scheme,
								Adversary: adv, FaultyOverride: &faulty, Seed: int64(mask), Trace: buf,
							})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if err := trace.WriteJSONL(h, buf.Events()); err != nil {
								t.Fatal(err)
							}
							if _, err := res.Decision(0, v); e.Class.Verdict(err) != nil {
								broken++
								if e.Class != cli.ClassStrawman {
									t.Errorf("%s: %v", label, err)
								}
							}
						}
					}
					got = append(got, fmt.Sprintf("%s n=%d t=%d %s %x", e.Name, p.N, p.T, name, h.Sum(nil)[:8]))
				}
			}
			if e.Class == cli.ClassStrawman {
				if broken == 0 {
					t.Error("strawman never broke: the suite's positive control failed")
				}
				t.Logf("%d runs broke", broken)
			}
			want := slices.DeleteFunc(slices.Clone(pinned), func(line string) bool {
				return strings.Fields(line)[0] != e.Name
			})
			for i := range max(len(got), len(want)) {
				switch {
				case i >= len(got):
					t.Errorf("missing digest: want %q", want[i])
				case i >= len(want):
					t.Errorf("extra digest: got %q", got[i])
				case got[i] != want[i]:
					t.Errorf("got %q, want %q", got[i], want[i])
				}
			}
		})
	}
}

// contractSizes are a row's cells: its canonical size, the smallest n its
// Check accepts at t=1, and its folded sizes.
func contractSizes(t *testing.T, e cli.Entry) []cli.Params {
	sizes := []cli.Params{{N: e.N, T: e.T}}
	for n := 2; ; n++ {
		if n > 64 {
			t.Fatalf("%s accepts no n ≤ 64 at t=1", e.Name)
		}
		p := cli.Params{N: n, T: 1}
		if proto, err := cli.Protocol(e.Name, p); err == nil && proto.Check(n, 1) == nil {
			sizes = append(sizes, p)
			break
		}
	}
	return slices.Compact(append(sizes, folded[e.Name]...))
}

// faultySets returns the bitmask of every faulty set F ⊆ {p0..p(n-1)} with
// |F| ≤ t, ascending; past a budget of 64 sets (12 from n=16 on, where a run
// costs most), a sample of them. The sample keeps every F with |F| ≤ 1 or
// holding the transmitter p0, and takes a fixed stride through the rest for
// what room is left. When the kept sets alone would take more than half the
// budget, ∅, {p0} and a stride through the others take that half.
func faultySets(n, t int) []int {
	budget := 64
	if n >= 16 {
		budget = 12
	}
	var kept, rest []int
	for mask := 0; mask < 1<<n; mask++ {
		switch size := bits.OnesCount(uint(mask)); {
		case size > t:
		case size <= 1 || mask&1 != 0:
			kept = append(kept, mask) // ∅ and {p0} first
		default:
			rest = append(rest, mask)
		}
	}
	if len(kept)+len(rest) > budget {
		if len(kept) > budget/2 {
			kept = append(kept[:2:2], stride(kept[2:], budget/2-2)...)
		}
		rest = stride(rest, budget-len(kept))
	}
	kept = append(kept, rest...)
	slices.Sort(kept)
	return kept
}

// stride returns every k-th element of xs, k the smallest step that leaves at
// most room of them.
func stride(xs []int, room int) []int {
	if room < 1 {
		return nil
	}
	var out []int
	for i := 0; i < len(xs); i += (len(xs) + room - 1) / room {
		out = append(out, xs[i])
	}
	return out
}
