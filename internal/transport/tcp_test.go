package transport_test

import (
	"context"
	"testing"
	"time"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/transport"
)

// checkAgreement judges a run with the one judge both substrates share.
func checkAgreement(t *testing.T, res *transport.Result, transmitterValue ident.Value) {
	t.Helper()
	if _, err := res.Decision(0, transmitterValue); err != nil {
		t.Fatal(err)
	}
}

func TestAlg1OverTCP(t *testing.T) {
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		res, err := transport.RunCluster(context.Background(), core.Config{
			N: 7, T: 3, Value: v, Protocol: alg1.Protocol{},
		}, transport.Net{PhaseTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		checkAgreement(t, res, v)
		if res.Report.MessagesCorrect == 0 {
			t.Fatal("no messages counted")
		}
	}
}

func TestDolevStrongOverTCPWithSplitBrain(t *testing.T) {
	adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 4}
	faulty := ident.NewSet(0)
	res, err := transport.RunCluster(context.Background(), core.Config{
		N: 7, T: 2, Value: ident.V1, Protocol: dolevstrong.Protocol{},
		Adversary: adv, FaultyOverride: &faulty,
	}, transport.Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, res, ident.V1)
}

func TestAlg3OverTCPWithCrash(t *testing.T) {
	crash := faultnet.MustCompile(faultnet.Spec{}.WithCrash(ident.NewSet(14, 15), 4), 1)
	res, err := transport.RunCluster(context.Background(), core.Config{
		N: 16, T: 2, Value: ident.V1, Protocol: alg3.Protocol{S: 3}, Faults: crash,
	}, transport.Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, res, ident.V1)
}

func TestAlg5OverTCP(t *testing.T) {
	// The most intricate protocol (three-mode schedule, embedded Algorithm
	// 2 and per-block Algorithm 4 instances) must run unmodified over real
	// sockets.
	for _, v := range []ident.Value{ident.V0, ident.V1} {
		res, err := transport.RunCluster(context.Background(), core.Config{
			N: 30, T: 2, Value: v, Protocol: alg5.Protocol{S: 2},
		}, transport.Net{PhaseTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		checkAgreement(t, res, v)
	}
}

func TestContextCancellationAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := transport.RunCluster(ctx, core.Config{
		N: 4, T: 1, Value: ident.V1, Protocol: dolevstrong.Protocol{},
	}, transport.Net{PhaseTimeout: time.Second})
	if err == nil {
		t.Fatal("cancelled run completed")
	}
}

func TestMutedPeerTimeoutPath(t *testing.T) {
	// A processor whose frames never arrive (dead machine, sockets still
	// open) forces everybody through the per-phase timeout; agreement must
	// survive because the silence is indistinguishable from a crash fault.
	mute := ident.NewSet(3)
	res, err := transport.RunCluster(context.Background(), core.Config{
		N: 4, T: 1, Value: ident.V1, Protocol: dolevstrong.Protocol{},
		Adversary: adversary.Silent{}, FaultyOverride: &mute,
	}, transport.Net{PhaseTimeout: 300 * time.Millisecond, Mute: mute})
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, res, ident.V1)
}

func TestAlg2OverTCPMatchesEngineCounts(t *testing.T) {
	// The TCP substrate must deliver exactly the same protocol behaviour as
	// the in-memory engine: same decisions, same message totals.
	res, err := transport.RunCluster(context.Background(), core.Config{
		N: 7, T: 3, Value: ident.V1, Protocol: alg2.Protocol{},
	}, transport.Net{PhaseTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, res, ident.V1)
	// Worst-case fault-free Algorithm 2 count, from the engine runs in the
	// alg2 tests: for t=3 the engine sends a deterministic total; here we
	// only require the Theorem 4 bound because goroutine scheduling cannot
	// change counts (lock-step phases), but keep the check independent.
	if got, bound := res.Report.MessagesCorrect, 5*3*3+5*3; got > bound {
		t.Fatalf("%d msgs > Theorem 4 bound %d", got, bound)
	}
}
