package transport_test

import (
	"bytes"
	"cmp"
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
	"byzex/internal/metrics"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/sig"
	"byzex/internal/trace"
	"byzex/internal/transport"
)

// TestEngineTCPParity is the cross-substrate contract. Every registry row at
// its canonical size — plus alg1 n=7 t=3, alg3 S=3 n=14 and alg5 S=2 n=25 —
// under the adversaries none, split-brain, silent and crash, with no fault
// plan (for the transmitter values 0 and 1), a crash and a delivery-fault
// plan (every rule names sender 1, so the plan stays in budget), runs in
// memory and over TCP — every other configuration with a link delay, which
// moves when a phase is stepped and nothing else. The TCP run must equal the
// memory run under project: equal decisions, equal reports and
// byte-identical JSONL traces. Where one substrate refuses a configuration,
// both refuse it with the same error.
func TestEngineTCPParity(t *testing.T) {
	type row struct {
		name, scheme string
		n, t, s      int
	}
	var rows []row
	for _, e := range cli.Registry() {
		rows = append(rows, row{e.Name, e.Scheme, e.N, e.T, 0})
	}
	rows = append(rows, row{"alg1", "hmac", 7, 3, 0}, row{"alg3", "hmac", 14, 2, 3}, row{"alg5", "hmac", 25, 2, 2})
	ctx := context.Background()
	i := 0
	for _, r := range rows {
		for _, adv := range []string{"none", "split-brain", "silent", "crash"} {
			for _, run := range []struct {
				faults string
				value  ident.Value
			}{{"", ident.V0}, {"", ident.V1}, {"crash=1@2", ident.V1}, {"drop=1->2@2;dup=1->3@1;reorder=1->*@*", ident.V1}} {
				tp := cli.Template{Protocol: r.name, Scheme: r.scheme, N: r.n, T: r.t, S: r.s, Adversary: adv, Faults: run.faults, Seed: 1}
				netCfg := transport.Net{PhaseTimeout: 10 * time.Second, LinkDelay: time.Duration(i%2) * time.Millisecond}
				i++
				name := fmt.Sprintf("%s/n=%d/t=%d/s=%d/%s/%s/v=%d", r.name, r.n, r.t, r.s, adv, cmp.Or(run.faults, "no-plan"), run.value)
				t.Run(name, func(t *testing.T) {
					cfg, _, err := tp.Resolve()
					if err != nil {
						t.Fatal(err)
					}
					cfg.Value = run.value
					memBuf, tcpBuf := trace.NewBuffer(), trace.NewBuffer()
					memCfg, tcpCfg := cfg, cfg
					memCfg.Trace, tcpCfg.Trace = memBuf, tcpBuf
					mem, memErr := core.Run(ctx, memCfg)
					tcp, tcpErr := transport.RunCluster(ctx, tcpCfg, netCfg)
					if memErr != nil || tcpErr != nil {
						if fmt.Sprint(memErr) != fmt.Sprint(tcpErr) {
							t.Fatalf("memory error %v, tcp error %v", memErr, tcpErr)
						}
						return
					}
					if !reflect.DeepEqual(mem.Sim.Decisions, tcp.Decisions) {
						t.Errorf("decisions differ: memory %v, tcp %v", mem.Sim.Decisions, tcp.Decisions)
					}
					events, report := project(memBuf.Events(), mem.Sim.Report)
					if !reflect.DeepEqual(report, tcp.Report) {
						t.Errorf("reports differ: projected memory %+v, tcp %+v", report, tcp.Report)
					}
					var memJSONL, tcpJSONL bytes.Buffer
					if err := trace.WriteJSONL(&memJSONL, events); err != nil {
						t.Fatal(err)
					}
					if err := trace.WriteJSONL(&tcpJSONL, tcpBuf.Events()); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(memJSONL.Bytes(), tcpJSONL.Bytes()) {
						t.Errorf("traces differ: projected memory %d bytes, tcp %d bytes; first difference at line %d",
							memJSONL.Len(), tcpJSONL.Len(), firstDiffLine(memJSONL.Bytes(), tcpJSONL.Bytes()))
					}
				})
			}
		}
	}
}

// project is the one view under which a mesh run and an in-memory run of the
// same configuration are equal: events and report without the signature
// cache's — no verify-hit/verify-miss events, zero SigCacheHits and
// SigCacheMisses. Peers verify through one shared cache concurrently, so
// which of them pays a miss depends on goroutine interleaving; a mesh records
// neither. events is not modified.
func project(events []trace.Event, r metrics.Report) ([]trace.Event, metrics.Report) {
	out := make([]trace.Event, 0, len(events))
	for _, e := range events {
		if e.Kind != trace.KindVerifyHit && e.Kind != trace.KindVerifyMiss {
			out = append(out, e)
		}
	}
	r.SigCacheHits, r.SigCacheMisses = 0, 0
	return out, r
}

// firstDiffLine is the 1-based line at which two JSONL streams part.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}

// TestRunClusterSharedConfig drives the unified Run API: the SAME
// core.Config value runs on both substrates, decisions are judged by the
// shared Result.Decision methods, and the cluster's execution trace must
// agree with its metrics report exactly as the engine's does.
func TestRunClusterSharedConfig(t *testing.T) {
	coalition := ident.NewSet(6, 7)
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
			Adversary: adversary.Silent{}, FaultyOverride: &coalition,
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
	silent := ident.NewSet(4)
	run := func() []trace.Event {
		buf := trace.NewBuffer()
		_, err := transport.RunCluster(context.Background(), core.Config{
			Protocol: alg2.Protocol{}, N: 5, T: 2, Value: ident.V1,
			Scheme: sig.NewHMAC(5, 77), Seed: 77,
			Adversary: adversary.Silent{}, FaultyOverride: &silent,
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
