package core_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/dolevstrong"
)

// runCheck executes cfg and fails the test on any violation, returning the
// decision and result.
func runCheck(t *testing.T, cfg core.Config) (*core.Result, ident.Value) {
	t.Helper()
	res, v, err := core.RunAndCheck(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s n=%d t=%d v=%v adversary=%v: %v",
			cfg.Protocol.Name(), cfg.N, cfg.T, cfg.Value, advName(cfg.Adversary), err)
	}
	return res, v
}

func advName(a adversary.Adversary) string {
	if a == nil {
		return "none"
	}
	return a.Name()
}

func protocols(t int) map[string]protocol.Protocol {
	_ = t
	return map[string]protocol.Protocol{
		"alg1":         alg1.Protocol{},
		"dolev-strong": dolevstrong.Protocol{},
	}
}

func TestSmokeFaultFree(t *testing.T) {
	for name, p := range protocols(2) {
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			res, got := runCheck(t, core.Config{Protocol: p, N: 5, T: 2, Value: v})
			if got != v {
				t.Errorf("%s: decided %v, want %v", name, got, v)
			}
			if res.Sim.Report.MessagesCorrect == 0 {
				t.Errorf("%s: no messages recorded", name)
			}
		}
	}
}

func TestSmokeSplitBrain(t *testing.T) {
	for _, p := range protocols(2) {
		// Transmitter faulty: only condition (i) applies.
		adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 3}
		runCheck(t, core.Config{Protocol: p, N: 5, T: 2, Value: ident.V1, Adversary: adv})
	}
}

func TestSmokeAlg1Bound(t *testing.T) {
	for tt := 1; tt <= 8; tt++ {
		n := 2*tt + 1
		res, _ := runCheck(t, core.Config{Protocol: alg1.Protocol{}, N: n, T: tt, Value: ident.V1})
		if got, bound := res.Sim.Report.MessagesCorrect, core.Alg1MsgUpperBound(tt); got > bound {
			t.Errorf("t=%d: %d messages > bound %d", tt, got, bound)
		}
		if res.Phases != core.Alg1Phases(tt) {
			t.Errorf("t=%d: phases %d != %d", tt, res.Phases, core.Alg1Phases(tt))
		}
	}
}
