package transport_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"byzex/internal/adversary"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/sig"
	"byzex/internal/trace"
	"byzex/internal/transport"
)

// TestEngineTCPParity runs the same deterministic protocol instance on the
// in-memory engine and over TCP with an identical signature scheme: the
// substrates must produce identical decisions and identical message,
// signature and byte totals (lock-step synchrony means goroutine
// scheduling cannot change what is sent) — with and without a link delay,
// which moves when a phase is stepped and nothing else.
func TestEngineTCPParity(t *testing.T) {
	cases := []struct {
		p    protocol.Protocol
		n, t int
	}{
		{alg1.Protocol{}, 7, 3},
		{alg2.Protocol{}, 5, 2},
		{alg3.Protocol{S: 3}, 14, 2},
		{alg5.Protocol{S: 2}, 25, 2},
		{dolevstrong.Protocol{}, 6, 2},
	}
	for _, tc := range cases {
		for _, run := range []struct {
			v         ident.Value
			linkDelay time.Duration
		}{{ident.V0, 0}, {ident.V1, time.Millisecond}} {
			v := run.v
			scheme := sig.NewHMAC(tc.n, 321)

			engRes, _, err := core.RunAndCheck(context.Background(), core.Config{
				Protocol: tc.p, N: tc.n, T: tc.t, Value: v, Scheme: scheme,
			})
			if err != nil {
				t.Fatalf("%s engine: %v", tc.p.Name(), err)
			}

			tcpRes, err := transport.RunCluster(context.Background(), core.Config{
				Protocol: tc.p, N: tc.n, T: tc.t, Value: v, Scheme: scheme,
			}, transport.Net{PhaseTimeout: 10 * time.Second, LinkDelay: run.linkDelay})
			if err != nil {
				t.Fatalf("%s tcp: %v", tc.p.Name(), err)
			}

			for id, ed := range engRes.Sim.Decisions {
				td, ok := tcpRes.Decisions[id]
				if !ok || td != ed {
					t.Fatalf("%s v=%v: decision of %v differs (engine %v, tcp %v)",
						tc.p.Name(), v, id, ed, td)
				}
			}
			er, tr := engRes.Sim.Report, tcpRes.Report
			if er.MessagesCorrect != tr.MessagesCorrect {
				t.Fatalf("%s v=%v: messages differ (engine %d, tcp %d)",
					tc.p.Name(), v, er.MessagesCorrect, tr.MessagesCorrect)
			}
			if er.SignaturesCorrect != tr.SignaturesCorrect {
				t.Fatalf("%s v=%v: signatures differ (engine %d, tcp %d)",
					tc.p.Name(), v, er.SignaturesCorrect, tr.SignaturesCorrect)
			}
			if er.BytesCorrect != tr.BytesCorrect {
				t.Fatalf("%s v=%v: bytes differ (engine %d, tcp %d)",
					tc.p.Name(), v, er.BytesCorrect, tr.BytesCorrect)
			}
		}
	}
}

// TestRunClusterSharedConfig drives the unified Run API: the SAME
// core.Config value runs on both substrates, decisions are judged by the
// shared Result.Decision methods, and the cluster's execution trace must
// agree with its metrics report exactly as the engine's does.
func TestRunClusterSharedConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"fault-free", core.Config{
			Protocol: alg1.Protocol{}, N: 7, T: 3, Value: ident.V1,
			Scheme: sig.NewHMAC(7, 55), Seed: 55,
		}},
		{"silent-coalition", core.Config{
			Protocol: dolevstrong.Protocol{}, N: 8, T: 2, Value: ident.V1,
			Scheme: sig.NewHMAC(8, 56), Seed: 56,
			Adversary: adversary.Silent{}, FaultyOverride: ident.NewSet(6, 7),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engRes, err := core.Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			engDec, err := engRes.Decision(tc.cfg.Transmitter, tc.cfg.Value)
			if err != nil {
				t.Fatalf("engine decision: %v", err)
			}

			clCfg := tc.cfg
			buf := trace.NewBuffer()
			clCfg.Trace = buf
			clRes, err := transport.RunCluster(context.Background(), clCfg,
				transport.Net{PhaseTimeout: 10 * time.Second})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			clDec, err := clRes.Decision(tc.cfg.Transmitter, tc.cfg.Value)
			if err != nil {
				t.Fatalf("cluster decision: %v", err)
			}
			if engDec != clDec {
				t.Fatalf("decisions differ: engine %v, cluster %v", engDec, clDec)
			}
			if engRes.Faulty.Len() != clRes.Faulty.Len() ||
				engRes.Faulty.Intersect(clRes.Faulty).Len() != engRes.Faulty.Len() {
				t.Fatalf("faulty sets differ: engine %v, cluster %v",
					engRes.Faulty.Sorted(), clRes.Faulty.Sorted())
			}
			if engRes.Sim.Report.MessagesCorrect != clRes.Report.MessagesCorrect {
				t.Fatalf("messages differ: engine %d, cluster %d",
					engRes.Sim.Report.MessagesCorrect, clRes.Report.MessagesCorrect)
			}

			// The cluster's merged trace must agree with its own metrics.
			sum := trace.Summarize(buf.Events())
			if err := sum.CheckReport(clRes.Report); err != nil {
				t.Fatalf("cluster trace vs report: %v", err)
			}
			if sum.Decided+sum.Undecided != tc.cfg.N {
				t.Fatalf("%d decision events, want %d", sum.Decided+sum.Undecided, tc.cfg.N)
			}
			if sum.Corrupted != clRes.Faulty.Len() {
				t.Fatalf("%d corrupt events, faulty set has %d", sum.Corrupted, clRes.Faulty.Len())
			}
		})
	}
}

// TestRunClusterTraceDeterministic pins the merge order: two identical
// cluster runs — goroutine scheduling aside — must produce byte-identical
// JSONL traces.
func TestRunClusterTraceDeterministic(t *testing.T) {
	run := func() []trace.Event {
		buf := trace.NewBuffer()
		_, err := transport.RunCluster(context.Background(), core.Config{
			Protocol: alg2.Protocol{}, N: 5, T: 2, Value: ident.V1,
			Scheme: sig.NewHMAC(5, 77), Seed: 77,
			Adversary: adversary.Silent{}, FaultyOverride: ident.NewSet(4),
			Trace: buf,
		}, transport.Net{PhaseTimeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestMeshRunnerMatchesRunCluster is the mesh twin of core's
// TestRunnerMatchesFreshRun: one warm mesh, whose core.Runner keeps signers
// and verifier storage from epoch to epoch, runs a shuffled sequence of n=7
// configurations — every registry row that admits n=7, each under its own
// scheme, fault-free, split-brain and crash=1@2 — and each must equal a
// fresh RunCluster of the same configuration: decisions, report, faulty set
// and trace events.
func TestMeshRunnerMatchesRunCluster(t *testing.T) {
	const n = 7
	var seq []core.Config
	for i, e := range cli.Registry() {
		for _, tt := range []int{e.T, (n - 1) / 2, 1} {
			tp := cli.Template{Protocol: e.Name, Scheme: e.Scheme, N: n, T: tt, Seed: int64(5 + 10*i)}
			cfg, _, err := tp.Resolve()
			if err != nil || cfg.Protocol.Check(n, tt) != nil {
				continue
			}
			for _, v := range []struct{ adv, faults string }{{}, {adv: "split-brain"}, {faults: "crash=1@2"}} {
				tp.Adversary, tp.Faults = v.adv, v.faults
				c, _, err := tp.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				c.Scheme = cfg.Scheme // one scheme per row
				seq = append(seq, c)
			}
			break
		}
	}
	rand.New(rand.NewSource(9)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })

	ctx := context.Background()
	netCfg := transport.Net{PhaseTimeout: 10 * time.Second}
	m, err := transport.NewMesh(ctx, n, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i, cfg := range seq {
		warmTrace, coldTrace := trace.NewBuffer(), trace.NewBuffer()
		warmCfg, coldCfg := cfg, cfg
		warmCfg.Trace, coldCfg.Trace = warmTrace, coldTrace
		warm, warmErr := m.Run(ctx, warmCfg)
		cold, coldErr := transport.RunCluster(ctx, coldCfg, netCfg)
		name := fmt.Sprintf("run %d (%s t=%d adv=%v faults=%v)", i, cfg.Protocol.Name(), cfg.T, cfg.Adversary, cfg.Faults != nil)
		if fmt.Sprint(warmErr) != fmt.Sprint(coldErr) {
			t.Fatalf("%s: warm error %v, cold error %v", name, warmErr, coldErr)
		}
		if coldErr != nil {
			continue
		}
		if !reflect.DeepEqual(warm.Decisions, cold.Decisions) || !reflect.DeepEqual(warm.Report, cold.Report) ||
			!reflect.DeepEqual(warm.Faulty, cold.Faulty) {
			t.Errorf("%s: warm %v %v %v, fresh %v %v %v", name, warm.Decisions, warm.Report, warm.Faulty,
				cold.Decisions, cold.Report, cold.Faulty)
		}
		if !sameEvents(warmTrace.Events(), coldTrace.Events()) {
			t.Errorf("%s: trace differs from a fresh cluster's", name)
		}
	}
}
