package transport_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/sim"
	"byzex/internal/trace"
	"byzex/internal/transport"
)

// runTCP executes cfg over localhost TCP, under the given link delay, with a
// fresh trace buffer.
func runTCP(t *testing.T, cfg core.Config, linkDelay time.Duration) (*transport.Result, *trace.Buffer) {
	t.Helper()
	buf := trace.NewBuffer()
	cfg.Trace = buf
	res, err := transport.RunCluster(context.Background(), cfg, transport.Net{PhaseTimeout: 10 * time.Second, LinkDelay: linkDelay})
	if err != nil {
		t.Fatal(err)
	}
	return res, buf
}

// mustPlan compiles a literal fault spec.
func mustPlan(t *testing.T, spec string, seed int64) *faultnet.Plan {
	t.Helper()
	parsed, err := faultnet.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faultnet.MustCompile(parsed, seed)
}

func sameEvents(a, b []trace.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkFaultCounters(t *testing.T, label string, events []trace.Event, want faultnet.Counters) {
	t.Helper()
	sum := trace.Summarize(events)
	got := faultnet.Counters{
		Drops: sum.FaultDrops, Delays: sum.FaultDelays, Dups: sum.FaultDups,
		Reorders: sum.FaultReorders, Crashes: sum.FaultCrashes,
	}
	if got != want {
		t.Errorf("%s: fault counters %+v, want %+v", label, got, want)
	}
}

// TestScenarioMatrix is the fault-injection acceptance test: every registry
// protocol that promises something (strawmen do not) and whose canonical
// size has the t ≥ 2 the scenarios spend, under every fault family, with the
// plan kept inside the fault budget (Affected ⊆ faulty, |faulty| ≤ t), and
// under the randomized chaos and garbage adversaries, must still reach
// agreement and validity (unanimity only for the exchange class, or when the
// adversary corrupted the transmitter); two runs of the same seed — the
// second under a link delay, so every fault rule also meets the receivers'
// hold — must produce identical decisions and byte-identical traces; and the
// fault-* counters recovered from the trace must equal the plan's own
// accounting — on both substrates, whose decisions must also agree with each
// other.
func TestScenarioMatrix(t *testing.T) {
	const seed = 42
	scenarios := []struct {
		name, spec, adversary string
	}{
		{"crash", "crash=1@2;crash=2@3", ""},
		{"drop-dup", "drop=1->3@2-3;dup=1->4@1;drop=2->*@2/0.6", ""},
		{"partition", "partition=1,2|3,4@2", ""},
		{"delay-reorder", "delay=1->*@1-2+1;reorder=2->*@*", ""},
		{"chaos", "", "chaos"},
		{"garbage", "", "garbage"},
	}
	for _, e := range cli.Registry() {
		if e.T < 2 || e.Class == cli.ClassStrawman {
			continue // scenarios fault two processors; strawmen promise nothing
		}
		params := cli.Params{N: e.N, T: e.T, Seed: seed}
		proto, err := cli.Protocol(e.Name, params)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := cli.Scheme(e.Scheme, params)
		if err != nil {
			t.Fatal(err)
		}
		phases := proto.Phases(e.N, e.T)
		for _, sc := range scenarios {
			t.Run(e.Name+"/"+sc.name, func(t *testing.T) {
				plan := mustPlan(t, sc.spec, seed)
				if err := plan.CheckBudget(e.N, e.T); err != nil {
					t.Fatalf("scenario not in budget: %v", err)
				}
				adv, err := cli.Adversary(sc.adversary, params)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.Config{
					Protocol: proto, N: e.N, T: e.T, Value: ident.V1, Scheme: scheme,
					Adversary: adv, Seed: seed, Faults: plan,
				}
				if adv == nil {
					override := plan.Affected(e.N)
					cfg.FaultyOverride = &override
				}
				want := plan.ExpectedCounters(e.N, phases)

				res1, buf1 := runTCP(t, cfg, 0)
				if _, err := res1.Decision(cfg.Transmitter, ident.V1); e.Class.Verdict(err) != nil {
					t.Fatalf("tcp: %v", err)
				}
				checkFaultCounters(t, "tcp", buf1.Events(), want)

				// Same seed, second run, links a millisecond long: byte-identical
				// trace and decisions.
				res2, buf2 := runTCP(t, cfg, time.Millisecond)
				if !sameEvents(buf1.Events(), buf2.Events()) {
					t.Error("same-seed reruns produced different traces")
				}
				for id, d := range res1.Decisions {
					if res2.Decisions[id] != d {
						t.Errorf("same-seed reruns diverge at %v: %+v vs %+v", id, d, res2.Decisions[id])
					}
				}

				// The in-memory engine mirrors the frame-layer semantics:
				// identical decisions, identical fault accounting.
				memBuf := trace.NewBuffer()
				memCfg := cfg
				memCfg.Trace = memBuf
				memRes, err := core.Run(context.Background(), memCfg)
				if err != nil {
					t.Fatalf("memory substrate: %v", err)
				}
				checkFaultCounters(t, "memory", memBuf.Events(), want)
				for id, d := range res1.Decisions {
					if got := memRes.Sim.Decisions[id]; got != d {
						t.Errorf("substrates diverge at %v: tcp %+v, memory %+v", id, d, got)
					}
				}
			})
		}
	}
}

// TestCrashAtPhaseK runs every protocol in the registry over TCP with the
// highest-numbered processor crash-halted at phase 2 and judged faulty. The
// crash budget is within t everywhere, so every non-strawman protocol must
// still reach agreement and validity; determinism across same-seed reruns is
// required of all of them, strawmen included.
func TestCrashAtPhaseK(t *testing.T) {
	for _, e := range cli.Registry() {
		t.Run(e.Name, func(t *testing.T) {
			params := cli.Params{N: e.N, T: e.T, Seed: 9}
			proto, err := cli.Protocol(e.Name, params)
			if err != nil {
				t.Fatal(err)
			}
			scheme, err := cli.Scheme(e.Scheme, params)
			if err != nil {
				t.Fatal(err)
			}
			victim := ident.ProcID(e.N - 1)
			plan := faultnet.MustCompile(faultnet.Spec{Rules: []faultnet.Rule{
				{Kind: faultnet.KCrash, Proc: victim, AtPhase: 2},
			}}, 9)
			faulty := ident.NewSet(victim)
			runCfg := core.Config{
				Protocol: proto, N: e.N, T: e.T, Value: ident.V1, Scheme: scheme,
				FaultyOverride: &faulty, Seed: 9, Faults: plan,
			}
			res1, _ := runTCP(t, runCfg, 0)
			res2, _ := runTCP(t, runCfg, 0)
			for id, d := range res1.Decisions {
				if res2.Decisions[id] != d {
					t.Errorf("same-seed reruns diverge at %v", id)
				}
			}
			if _, err := res1.Decision(0, ident.V1); e.Class != cli.ClassStrawman && e.Class.Verdict(err) != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOverBudgetFaultsFailTyped pins the safety side of the budget contract:
// a plan the fault bound cannot absorb must fail typed, never decide
// divergently. What validation can see — a crash victim judged correct, a
// faulty set beyond t — both substrates refuse up front with the same error;
// what only the wire can see, a receiver's information gap beyond t,
// surfaces over TCP as ErrStalled.
func TestOverBudgetFaultsFailTyped(t *testing.T) {
	proto, err := cli.Protocol("alg1", cli.Params{N: 5, T: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{Protocol: proto, N: 5, T: 2, Value: ident.V1, Seed: 1}
	ctx := context.Background()
	netCfg := transport.Net{PhaseTimeout: 2 * time.Second}

	t.Run("blanket drop stalls", func(t *testing.T) {
		cfg := base
		cfg.Faults = mustPlan(t, "drop=*->*@*", 1)
		override := ident.NewSet(1, 2) // the most t allows; the plan veils 4
		cfg.FaultyOverride = &override
		_, err := transport.RunCluster(ctx, cfg, netCfg)
		if !errors.Is(err, transport.ErrStalled) {
			t.Fatalf("got %v, want ErrStalled", err)
		}
	})

	// refused runs cfg on both substrates: each must fail, with the same
	// error, matching want when want is non-nil.
	refused := func(t *testing.T, cfg core.Config, want error) {
		t.Helper()
		_, memErr := core.Run(ctx, cfg)
		_, tcpErr := transport.RunCluster(ctx, cfg, netCfg)
		if memErr == nil || fmt.Sprint(memErr) != fmt.Sprint(tcpErr) {
			t.Fatalf("memory %v, tcp %v: want the same refusal", memErr, tcpErr)
		}
		if want != nil && (!errors.Is(memErr, want) || !errors.Is(tcpErr, want)) {
			t.Fatalf("memory %v, tcp %v: want %v", memErr, tcpErr, want)
		}
	}

	t.Run("unbudgeted crash surfaces", func(t *testing.T) {
		cfg := base
		cfg.Faults = mustPlan(t, "crash=1@2", 1)
		override := ident.Set{} // crash victim not judged faulty
		cfg.FaultyOverride = &override
		refused(t, cfg, sim.ErrCrashNotFaulty)
	})

	t.Run("crash trio beyond t", func(t *testing.T) {
		cfg := base
		cfg.Faults = mustPlan(t, "crash=1@2;crash=2@2;crash=3@2", 1)
		override := ident.NewSet(1, 2)
		cfg.FaultyOverride = &override
		refused(t, cfg, sim.ErrCrashNotFaulty)
	})

	t.Run("faulty set beyond t", func(t *testing.T) {
		cfg := base
		cfg.Faults = mustPlan(t, "drop=*->*@*", 1) // Setup counts all five faulty
		refused(t, cfg, sim.ErrTooManyFaulty)
	})

	// silent corrupts p5 and p6; the plan tampers with p1's traffic as well.
	t.Run("adversary and plan beyond t", func(t *testing.T) {
		cfg, _, err := cli.Template{
			Protocol: "lsp", N: 7, T: 2, Scheme: "plain", Adversary: "silent",
			Faults: "drop=1->2@2;dup=1->3@1;reorder=1->*@*", Seed: 1,
		}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		refused(t, cfg, sim.ErrTooManyFaulty)
	})
}

// TestAdversaryAndPlanShareTheBudget: a template naming both an adversary
// and a fault plan runs with the adversary's draw united with the plan's
// affected processors as its faulty set — split-brain's transmitter p0 and
// the crashed p1, which fit t=2 — and agrees on both substrates.
func TestAdversaryAndPlanShareTheBudget(t *testing.T) {
	cfg, _, err := cli.Template{
		Protocol: "alg1", N: 5, T: 2, Scheme: "hmac", Adversary: "split-brain", Faults: "crash=1@2", Seed: 1,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Value = ident.V1
	mem, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcp, _ := runTCP(t, cfg, 0)
	_, memErr := mem.Decision(0, ident.V1)
	_, tcpErr := tcp.Decision(0, ident.V1)
	for _, r := range []struct {
		name   string
		faulty ident.Set
		err    error
	}{{"memory", mem.Faulty, memErr}, {"tcp", tcp.Faulty, tcpErr}} {
		if got := r.faulty.Sorted(); r.err != nil || !slices.Equal(got, []ident.ProcID{0, 1}) {
			t.Errorf("%s: faulty %v, judge %v; want [p0 p1] and agreement", r.name, got, r.err)
		}
	}
}
