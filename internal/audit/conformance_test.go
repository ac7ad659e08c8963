package audit_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/audit"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/sig"
)

func TestConformanceFaultFree(t *testing.T) {
	// Every processor of a fault-free run conforms at every phase.
	scheme := sig.NewHMAC(5, 3)
	res, h, err := audit.Record(context.Background(), core.Config{
		Protocol: alg1.Protocol{}, N: 5, T: 2, Value: ident.V1, Scheme: scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Decision(0, ident.V1); err != nil {
		t.Fatal(err)
	}
	conf, err := audit.Conformance(h, alg1.Protocol{}, scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p, firstDeviation := range conf {
		if firstDeviation != 0 {
			t.Errorf("%v flagged at phase %d in a fault-free run", p, firstDeviation)
		}
	}
}

func TestConformanceDetectsSplitBrain(t *testing.T) {
	// The equivocating transmitter must be the only processor flagged.
	scheme := sig.NewHMAC(7, 3)
	adv := adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 4}
	_, h, err := audit.Record(context.Background(), core.Config{
		Protocol: dolevstrong.Protocol{}, N: 7, T: 2, Value: ident.V1,
		Scheme: scheme, Adversary: adv,
	})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := audit.Conformance(h, dolevstrong.Protocol{}, scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	if conf[0] == 0 {
		t.Error("split-brain transmitter not detected")
	}
	for p, dev := range conf {
		if p != 0 && dev != 0 {
			t.Errorf("correct %v flagged at phase %d", p, dev)
		}
	}
}

func TestConformanceDetectsSilentCoalition(t *testing.T) {
	// Silent processors deviate at their first mandatory send. In
	// Dolev-Strong every non-transmitter's first mandatory send is the
	// phase-2 relay.
	scheme := sig.NewHMAC(7, 3)
	res, h, err := audit.Record(context.Background(), core.Config{
		Protocol: dolevstrong.Protocol{}, N: 7, T: 2, Value: ident.V1,
		Scheme: scheme, Adversary: adversary.Silent{},
	})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := audit.Conformance(h, dolevstrong.Protocol{}, scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Faulty.Sorted() {
		if conf[p] == 0 {
			t.Errorf("silent %v not detected", p)
		}
	}
	for id := 0; id < 7; id++ {
		p := ident.ProcID(id)
		if !res.Faulty.Has(p) && conf[p] != 0 {
			t.Errorf("correct %v flagged at phase %d", p, conf[p])
		}
	}
}
