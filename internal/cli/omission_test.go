package cli_test

import (
	"context"
	"fmt"
	"math/bits"
	mrand "math/rand"
	"reflect"
	"testing"
	"time"

	"byzex/internal/adversary"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/protocol"
	"byzex/internal/sim"
	"byzex/internal/transport"
)

// TestOmissionPlansMatchWrappers: the omission faults' plan form is exact on
// the correct processors. For every registry row at its canonical size, every
// faulty set F with |F| ≤ t and both values, "silent" (F's crash rules,
// cli.Omission) runs beside adversary.Silent and "crash" beside crashAfter,
// the node wrapper it replaced; one row does the same on a warm mesh. Each
// pair must agree on the correct processors' decisions, the verdict and the
// correct-sender counts.
func TestOmissionPlansMatchWrappers(t *testing.T) {
	wrappers := []struct {
		name string
		adv  adversary.Adversary
	}{{"silent", adversary.Silent{}}, {"crash", crashAfter(2)}}
	for _, e := range cli.Registry() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			p := cli.Params{N: e.N, T: e.T}
			proto, err := cli.Protocol(e.Name, p)
			if err != nil {
				t.Fatal(err)
			}
			scheme, err := cli.Scheme(e.Scheme, cli.Params{N: p.N, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range wrappers {
				eachOmission(t, p, w.name, func(cfg core.Config, plan *faultnet.Plan) {
					cfg.Protocol, cfg.Scheme = proto, scheme
					byPlan, err := core.Run(context.Background(), withPlan(cfg, plan))
					if err != nil {
						t.Fatal(err)
					}
					byWrapper, err := core.Run(context.Background(), withAdversary(cfg, w.adv))
					if err != nil {
						t.Fatal(err)
					}
					compareCorrect(t, cfg, byPlan.Sim.Decisions, byPlan.Sim.Report, byWrapper.Sim.Decisions, byWrapper.Sim.Report)
				})
			}
		})
	}

	t.Run("warm-mesh", func(t *testing.T) {
		t.Parallel()
		e, err := cli.Lookup("lsp")
		if err != nil {
			t.Fatal(err)
		}
		p := cli.Params{N: e.N, T: e.T}
		proto, err := cli.Protocol(e.Name, p)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := cli.Scheme(e.Scheme, cli.Params{N: p.N, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mesh, err := transport.NewMesh(context.Background(), p.N, transport.Net{PhaseTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		for _, w := range wrappers {
			eachOmission(t, p, w.name, func(cfg core.Config, plan *faultnet.Plan) {
				cfg.Protocol, cfg.Scheme = proto, scheme
				byPlan, err := mesh.Run(context.Background(), withPlan(cfg, plan))
				if err != nil {
					t.Fatal(err)
				}
				byWrapper, err := mesh.Run(context.Background(), withAdversary(cfg, w.adv))
				if err != nil {
					t.Fatal(err)
				}
				compareCorrect(t, cfg, byPlan.Decisions, byPlan.Report, byWrapper.Decisions, byWrapper.Report)
			})
		}
	})
}

// eachOmission calls run with the configuration of every faulty set F with
// |F| ≤ t (FaultyOverride, Seed = F's bitmask) and both values, and the plan
// the omission name expands to over F.
func eachOmission(t *testing.T, p cli.Params, name string, run func(core.Config, *faultnet.Plan)) {
	t.Helper()
	for mask := 0; mask < 1<<p.N; mask++ {
		if bits.OnesCount(uint(mask)) > p.T {
			continue
		}
		var faulty ident.Set
		for i := range p.N {
			if mask>>i&1 != 0 {
				faulty.Add(ident.ProcID(i))
			}
		}
		spec, ok := cli.Omission(name, faulty, faultnet.Spec{})
		if !ok {
			t.Fatalf("%s is not an omission", name)
		}
		plan, err := faultnet.Compile(spec, int64(mask))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			run(core.Config{N: p.N, T: p.T, Value: v, FaultyOverride: &faulty, Seed: int64(mask)}, plan)
		}
	}
}

func withPlan(cfg core.Config, plan *faultnet.Plan) core.Config {
	cfg.Faults = plan
	return cfg
}

func withAdversary(cfg core.Config, adv adversary.Adversary) core.Config {
	cfg.Adversary = adv
	return cfg
}

// compareCorrect fails t where the plan run and the wrapper run of cfg differ
// on a correct processor's decision, on the judge's verdict or on a
// correct-sender count.
func compareCorrect(t *testing.T, cfg core.Config, planDec map[ident.ProcID]sim.Decision, planRep metrics.Report, wrapDec map[ident.ProcID]sim.Decision, wrapRep metrics.Report) {
	t.Helper()
	label := fmt.Sprintf("%s n=%d t=%d F=%v %v", cfg.Protocol.Name(), cfg.N, cfg.T, cfg.FaultyOverride.Sorted(), cfg.Value)
	for i := range cfg.N {
		id := ident.ProcID(i)
		if !cfg.FaultyOverride.Has(id) && planDec[id] != wrapDec[id] {
			t.Errorf("%s: %v decided %+v under the plan, %+v under the wrapper", label, id, planDec[id], wrapDec[id])
		}
	}
	_, planErr := core.CheckDecisions(planDec, *cfg.FaultyOverride, 0, cfg.Value)
	_, wrapErr := core.CheckDecisions(wrapDec, *cfg.FaultyOverride, 0, cfg.Value)
	if fmt.Sprint(planErr) != fmt.Sprint(wrapErr) {
		t.Errorf("%s: verdict %v under the plan, %v under the wrapper", label, planErr, wrapErr)
	}
	counts := func(r metrics.Report) [4]int {
		return [4]int{r.MessagesCorrect, r.SignaturesCorrect, r.BytesCorrect, r.DistinctSigners}
	}
	if !reflect.DeepEqual(counts(planRep), counts(wrapRep)) {
		t.Errorf("%s: correct-sender msgs/sigs/bytes/signers %v under the plan, %v under the wrapper", label, counts(planRep), counts(wrapRep))
	}
}

// crashAfter is the node wrapper the "crash" omission replaced: the row's own
// node through phase crashAfter, then nothing.
type crashAfter int

func (crashAfter) Name() string { return "crash-wrapper" }
func (crashAfter) Corrupt(n, t int, tr ident.ProcID, _ *mrand.Rand) ident.Set {
	return adversary.LastNonTransmitter(n, t, tr)
}
func (c crashAfter) NewNode(cfg protocol.NodeConfig, env *adversary.Env) (sim.Node, error) {
	inner, err := env.Run.NewNode(cfg)
	return &crashNode{inner, int(c)}, err
}

type crashNode struct {
	sim.Node
	after int
}

func (c *crashNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	if ctx.Phase() > c.after {
		return nil
	}
	return c.Node.Step(ctx, inbox)
}
