package audit_test

import (
	"context"
	"fmt"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/audit"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/sig"
)

// TestConformanceSweep applies the Section 2 correctness checker across
// protocols and adversaries: correct processors are never flagged (no
// false positives), and every adversary that *must* deviate observably —
// sending something a correct processor would not, or omitting a mandatory
// send — is flagged (detection). Chaos may behave correctly by chance in a
// given run, so it is only checked for false positives.
func TestConformanceSweep(t *testing.T) {
	protos := []protocol.Protocol{
		alg1.Protocol{},
		alg2.Protocol{},
		dolevstrong.Protocol{},
	}
	type advCase struct {
		adv        adversary.Adversary
		mustDetect bool
	}
	advs := []advCase{
		{adversary.Silent{}, true}, // omits mandatory sends
		{adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: 4}, true},
		{adversary.Chaos{}, false}, // may mimic correctness on some seeds
	}
	for _, p := range protos {
		n, tt := 7, 3
		if p.Check(n, tt) != nil {
			n, tt = 7, 2
		}
		for _, ac := range advs {
			label := fmt.Sprintf("%s/%s", p.Name(), ac.adv.Name())
			scheme := sig.NewHMAC(n, 77)
			res, h, err := audit.Record(context.Background(), core.Config{
				Protocol: p, N: n, T: tt, Value: ident.V1,
				Scheme: scheme, Adversary: ac.adv, Seed: 5,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			conf, err := audit.Conformance(h, p, scheme, tt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			detected := 0
			for id, dev := range conf {
				if res.Faulty.Has(id) {
					if dev != 0 {
						detected++
					}
					continue
				}
				if dev != 0 {
					t.Errorf("%s: correct %v flagged at phase %d", label, id, dev)
				}
			}
			if ac.mustDetect && res.Faulty.Len() > 0 && detected == 0 {
				t.Errorf("%s: no faulty processor detected", label)
			}
		}
	}
}
