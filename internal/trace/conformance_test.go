package trace_test

import (
	"context"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/trace"
)

// TestTraceMatchesReportEveryProtocol is the acceptance gate for the tracing
// layer: for every protocol in the registry (cli.Registry), the per-phase
// message/signature attribution recovered from the trace must equal the
// counters metrics.Collector accumulated during the same run — under a
// fault-free run, a silent coalition, and a rushing split-brain where the
// fault bound allows one.
func TestTraceMatchesReportEveryProtocol(t *testing.T) {
	for _, e := range cli.Registry() {
		name := e.Name
		params := cli.Params{N: e.N, T: e.T, Seed: 1}
		proto, err := cli.Protocol(name, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scheme, err := cli.Scheme(e.Scheme, params)
		if err != nil {
			t.Fatal(err)
		}

		scenarios := []struct {
			scenario string
			advName  string
			rushing  bool
		}{
			{"fault-free", "none", false},
			{"silent", "silent", false},
			{"split-brain-rushing", "split-brain", true},
		}
		for _, sc := range scenarios {
			adv, spec, err := cli.Adversary(sc.advName, params, faultnet.Spec{})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := faultnet.Compile(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			buf := trace.NewBuffer()
			res, err := core.Run(context.Background(), core.Config{
				Protocol: proto, N: e.N, T: e.T, Value: ident.V1,
				Scheme: scheme, Adversary: adv, Seed: 7, Faults: plan,
				Rushing: sc.rushing, Trace: buf,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, sc.scenario, err)
			}
			sum := trace.Summarize(buf.Events())
			if err := sum.CheckReport(res.Sim.Report); err != nil {
				t.Errorf("%s/%s: %v", name, sc.scenario, err)
			}
			// The trace's own bookkeeping must match the run shape too.
			if sum.Corrupted != res.Faulty.Len() {
				t.Errorf("%s/%s: %d corrupt events, faulty set has %d", name, sc.scenario, sum.Corrupted, res.Faulty.Len())
			}
			if sum.Decided+sum.Undecided != e.N {
				t.Errorf("%s/%s: %d decision events, want %d", name, sc.scenario, sum.Decided+sum.Undecided, e.N)
			}
			if sum.VerifyHits != res.Sim.Report.SigCacheHits || sum.VerifyMisses != res.Sim.Report.SigCacheMisses {
				t.Errorf("%s/%s: verify events %d/%d, report sigcache %d/%d", name, sc.scenario,
					sum.VerifyHits, sum.VerifyMisses, res.Sim.Report.SigCacheHits, res.Sim.Report.SigCacheMisses)
			}
		}
	}
}

// TestTraceDisabledIsFree pins the zero-overhead contract end to end: a full
// run with no sink performs exactly as many allocations as the same run
// with the Nop sink — i.e. the emission paths themselves allocate nothing.
func TestTraceDisabledIsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random: the signing-input pool turns the two runs' allocation counts into a coin toss")
	}
	run := func(sink trace.Sink) {
		proto, err := cli.Protocol("dolev-strong", cli.Params{N: 6, T: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Protocol: proto, N: 6, T: 2, Value: ident.V1, Seed: 1, Trace: sink}
		if _, err := core.Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 10
	disabled := testing.AllocsPerRun(rounds, func() { run(nil) })
	nop := testing.AllocsPerRun(rounds, func() { run(trace.Nop{}) })
	if nop != disabled {
		t.Fatalf("Nop-sink run allocates %.0f, disabled run %.0f — emission path allocates", nop, disabled)
	}
}
