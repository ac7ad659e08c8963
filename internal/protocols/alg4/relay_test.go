package alg4_test

import (
	"bytes"
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg4"
)

func runRelay(t *testing.T, n, tt int, adv adversary.Adversary, faulty *ident.Set) *core.Result {
	t.Helper()
	res, err := core.Run(context.Background(), core.Config{
		Protocol: alg4.RelayProtocol{}, N: n, T: tt, Value: ident.V0,
		Adversary: adv, FaultyOverride: faulty, Seed: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRelayFullExchangeFaultFree(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{5, 1}, {10, 2}, {20, 4}} {
		res := runRelay(t, tc.n, tc.t, nil, nil)
		for i, nd := range res.Nodes {
			out := nd.(alg4.Exchanger).Output()
			if got := collected(out); got != tc.n {
				t.Fatalf("n=%d: node %d collected %d values", tc.n, i, got)
			}
		}
		if got, bound := res.Sim.Report.MessagesCorrect, alg4.RelayMsgUpperBound(tc.n, tc.t); got > bound {
			t.Fatalf("n=%d t=%d: %d msgs > bound %d", tc.n, tc.t, got, bound)
		}
	}
}

func TestRelayStrongerGuaranteeUnderFaults(t *testing.T) {
	// Unlike Algorithm 4, ALL correct processors mutually exchange as long
	// as at least one relay is correct (t faults among t+1 relays).
	n, tt := 12, 3
	faulty := ident.NewSet(0, 1, 2) // three of the four relays
	res := runRelay(t, n, tt, adversary.Silent{}, &faulty)
	for i, nd := range res.Nodes {
		id := ident.ProcID(i)
		if res.Faulty.Has(id) {
			continue
		}
		out := nd.(alg4.Exchanger).Output()
		for q := 0; q < n; q++ {
			qid := ident.ProcID(q)
			if res.Faulty.Has(qid) {
				continue
			}
			sb := out[qid]
			if len(sb.Chain) == 0 {
				t.Fatalf("node %d missing value of %v", i, qid)
			}
			if !bytes.Equal(sb.Body, alg4.OwnValue(qid)) {
				t.Fatalf("node %d holds wrong value for %v", i, qid)
			}
		}
	}
}

func TestRelayVsGridCrossover(t *testing.T) {
	// The paper's §5/§6 comparison: relay costs Θ(Nt), the grid O(N^1.5);
	// the grid wins once t ≳ √N.
	for _, tc := range []struct {
		m, t     int
		gridWins bool
	}{
		{8, 1, false}, // N=64, t=1: relay (≈2N) beats grid (≈3N^1.5)
		{8, 16, true}, // N=64, t=16 ≥ 2√N: grid wins
		{16, 2, false},
		{16, 40, true},
	} {
		n := tc.m * tc.m
		grid := core.Alg4MsgUpperBound(tc.m)
		relay := alg4.RelayMsgUpperBound(n, tc.t)
		if (grid < relay) != tc.gridWins {
			t.Errorf("m=%d t=%d: grid=%d relay=%d, expected gridWins=%v",
				tc.m, tc.t, grid, relay, tc.gridWins)
		}
	}
}

func TestRelayCheck(t *testing.T) {
	p := alg4.RelayProtocol{}
	if err := p.Check(3, 3); err == nil {
		t.Fatal("t+1 > n accepted")
	}
	if err := p.Check(1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if err := p.Check(10, 3); err != nil {
		t.Fatal(err)
	}
}
