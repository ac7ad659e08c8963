package ic_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg5"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/protocols/ic"
)

func runIC(t *testing.T, base protocol.Protocol, n, tt int, v ident.Value, adv adversary.Adversary, faults *faultnet.Plan) *core.Result {
	t.Helper()
	res, err := core.Run(context.Background(), core.Config{
		Protocol: ic.Protocol{Base: base}, N: n, T: tt, Value: v,
		Adversary: adv, Faults: faults, Seed: 77,
	})
	if err != nil {
		t.Fatalf("ic(%s) n=%d t=%d: %v", base.Name(), n, tt, err)
	}
	return res
}

// checkVectors asserts interactive consistency: all correct processors hold
// the same vector, and slots of correct processors carry their real inputs.
func checkVectors(t *testing.T, res *core.Result, n int, v ident.Value) {
	t.Helper()
	var ref []ident.Value
	for id, nd := range res.Nodes {
		pid := ident.ProcID(id)
		if res.Faulty.Has(pid) {
			continue
		}
		holder, ok := nd.(ic.VectorHolder)
		if !ok {
			t.Fatalf("node %d is not a vector holder", id)
		}
		vec, decided := holder.Vector()
		if !decided {
			t.Fatalf("node %d has an incomplete vector", id)
		}
		if len(vec) != n {
			t.Fatalf("node %d vector length %d", id, len(vec))
		}
		if ref == nil {
			ref = vec
		} else {
			for k := range vec {
				if vec[k] != ref[k] {
					t.Fatalf("vectors disagree at slot %d: %v vs %v", k, vec[k], ref[k])
				}
			}
		}
	}
	if ref == nil {
		t.Fatal("no correct processors")
	}
	// Validity per slot: correct processor k's slot holds its input.
	for k := 0; k < n; k++ {
		pid := ident.ProcID(k)
		if res.Faulty.Has(pid) {
			continue
		}
		want := ic.OwnInput(pid, v)
		if ref[k] != want {
			t.Fatalf("slot %d = %v, want %v", k, ref[k], want)
		}
	}
}

func TestVectorFaultFree(t *testing.T) {
	for _, base := range []protocol.Protocol{dolevstrong.Protocol{}, alg1.Protocol{}, alg2.Protocol{}} {
		n, tt := 7, 2
		if base.Check(n, tt) != nil {
			n, tt = 5, 2 // alg1/alg2 need n = 2t+1
		}
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			res := runIC(t, base, n, tt, v, nil, nil)
			checkVectors(t, res, n, v)
		}
	}
}

func TestVectorUnderFaults(t *testing.T) {
	// Crashing processors are a fault-plan rule: the last t stop after phase 1.
	crash := faultnet.MustCompile(faultnet.Spec{}.WithCrash(adversary.LastNonTransmitter(7, 2, 0), 2), 77)
	for _, f := range []struct {
		adv    adversary.Adversary
		faults *faultnet.Plan
	}{{adversary.Silent{}, nil}, {nil, crash}, {adversary.Garbage{}, nil}} {
		res := runIC(t, dolevstrong.Protocol{}, 7, 2, ident.V1, f.adv, f.faults)
		checkVectors(t, res, 7, ident.V1)
	}
}

func TestVectorSplitBrain(t *testing.T) {
	// The outer transmitter equivocates. Its own slot may hold anything,
	// but all correct processors must hold identical vectors and the
	// correct slots must be right.
	adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 3}
	res := runIC(t, dolevstrong.Protocol{}, 7, 2, ident.V1, adv, nil)
	checkVectors(t, res, 7, ident.V1)
}

func TestCrossInstanceReplayImpossible(t *testing.T) {
	// The domain separation makes instance signatures incompatible: a
	// garbage adversary that replays raw bytes across instances (its
	// payloads land in random instances) must never corrupt any slot.
	res := runIC(t, dolevstrong.Protocol{}, 7, 2, ident.V1, adversary.Garbage{PerPhase: 8}, nil)
	checkVectors(t, res, 7, ident.V1)
}

func TestMessageCostIsNTimesBase(t *testing.T) {
	n, tt := 7, 2
	baseRes, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: dolevstrong.Protocol{}, N: n, T: tt, Value: ident.V1,
	})
	if err != nil {
		t.Fatal(err)
	}
	icRes := runIC(t, dolevstrong.Protocol{}, n, tt, ident.V1, nil, nil)
	base := baseRes.Sim.Report.MessagesCorrect
	got := icRes.Sim.Report.MessagesCorrect
	// Each instance is a value-0 or value-1 fault-free run; both cost the
	// same n(n-1) for Dolev-Strong, so the total is exactly n×base.
	if got != n*base {
		t.Fatalf("ic messages %d, want %d (= %d × %d)", got, n*base, n, base)
	}
}

func TestVectorOverAlg5(t *testing.T) {
	// Interactive consistency composes with the message-optimal algorithm
	// too: n parallel Algorithm 5 instances.
	n, tt := 25, 2
	res := runIC(t, alg5.Protocol{S: tt}, n, tt, ident.V1, nil, nil)
	checkVectors(t, res, n, ident.V1)
}

func TestCheckPropagates(t *testing.T) {
	p := ic.Protocol{Base: alg1.Protocol{}}
	if err := p.Check(6, 2); err == nil {
		t.Fatal("base constraint not propagated")
	}
	if err := (ic.Protocol{}).Check(7, 2); err == nil {
		t.Fatal("nil base accepted")
	}
}
