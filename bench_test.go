// Benchmark harness: one testing.B benchmark per evaluation table (see
// DESIGN.md §3 and EXPERIMENTS.md). Each benchmark executes a
// representative configuration of its experiment and reports the paper's
// quantities — messages and signatures sent by correct processors, and
// phases — as custom metrics, so `go test -bench=. -benchmem` regenerates
// the evaluation in one run. The full parameter sweeps (and the bound
// assertions) live in internal/experiments, executed by cmd/baexp and the
// experiments tests.
package byzex_test

import (
	"context"
	"strconv"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/audit"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg4"
	"byzex/internal/protocols/alg5"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/protocols/ic"
	"byzex/internal/protocols/lsp"
	"byzex/internal/protocols/strawman"
	"byzex/internal/sig"
)

// runBA executes one agreement instance per iteration and reports the
// information-exchange metrics.
func runBA(b *testing.B, p protocol.Protocol, n, t int, adv adversary.Adversary, scheme sig.Scheme) {
	b.Helper()
	ctx := context.Background()
	var msgs, sigs, phases int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(ctx, core.Config{
			Protocol: p, N: n, T: t, Value: ident.V1,
			Adversary: adv, Scheme: scheme, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Sim.Report.MessagesCorrect
		sigs = res.Sim.Report.SignaturesCorrect
		phases = res.Phases
	}
	b.ReportMetric(float64(msgs), "msgs")
	b.ReportMetric(float64(sigs), "sigs")
	b.ReportMetric(float64(phases), "phases")
}

// BenchmarkE1Alg1 — Theorem 3: Algorithm 1 at n=2t+1 (worst case is the
// fault-free value-1 run: every processor relays exactly once).
func BenchmarkE1Alg1(b *testing.B) {
	for _, t := range []int{4, 8, 16} {
		b.Run(benchName("t", t), func(b *testing.B) {
			runBA(b, alg1.Protocol{}, 2*t+1, t, nil, nil)
			b.ReportMetric(float64(core.Alg1MsgUpperBound(t)), "bound")
		})
	}
}

// BenchmarkE2Alg2 — Theorem 4: Algorithm 2 with its 2t+1 proof phases.
func BenchmarkE2Alg2(b *testing.B) {
	for _, t := range []int{4, 8, 16} {
		b.Run(benchName("t", t), func(b *testing.B) {
			runBA(b, alg2.Protocol{}, 2*t+1, t, nil, nil)
			b.ReportMetric(float64(core.Alg2MsgUpperBound(t)), "bound")
		})
	}
}

// BenchmarkE3Alg3 — Lemma 1 / Theorem 5: Algorithm 3 across the s dial.
func BenchmarkE3Alg3(b *testing.B) {
	const n, t = 256, 4
	for _, s := range []int{2, 8, 16, 32} {
		b.Run(benchName("s", s), func(b *testing.B) {
			runBA(b, alg3.Protocol{S: s}, n, t, nil, nil)
			b.ReportMetric(float64(core.Alg3MsgUpperBound(n, t, s)), "bound")
		})
	}
}

// BenchmarkE4Alg4 — Theorem 6: the O(N^1.5) grid exchange.
func BenchmarkE4Alg4(b *testing.B) {
	for _, m := range []int{4, 8, 16} {
		b.Run(benchName("m", m), func(b *testing.B) {
			runBA(b, alg4.Protocol{}, m*m, m/2, adversary.Silent{}, nil)
			b.ReportMetric(float64(core.Alg4MsgUpperBound(m)), "bound")
		})
	}
}

// BenchmarkE5Alg5 — Lemma 5 / Theorem 7: the O(n+t²) algorithm at s=t.
func BenchmarkE5Alg5(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{64, 3}, {256, 3}, {1024, 3}, {256, 4}} {
		b.Run(benchName("n", cfg.n)+benchName("/t", cfg.t), func(b *testing.B) {
			runBA(b, alg5.Protocol{S: cfg.t}, cfg.n, cfg.t, nil, nil)
			b.ReportMetric(float64(core.Alg5MsgUpperBound(cfg.n, cfg.t, cfg.t)), "bound")
		})
	}
}

// BenchmarkE6SigLowerBound — Theorem 1: the signature audit over H and G
// plus the replay attack against the sub-threshold strawman.
func BenchmarkE6SigLowerBound(b *testing.B) {
	ctx := context.Background()
	b.Run("audit-alg1-t8", func(b *testing.B) {
		var minAP, most int
		for i := 0; i < b.N; i++ {
			a, err := audit.AuditSignatures(ctx, alg1.Protocol{}, 17, 8, nil)
			if err != nil {
				b.Fatal(err)
			}
			minAP = a.MinAPSize
			most = a.HSignatures
			if a.GSignatures > most {
				most = a.GSignatures
			}
		}
		b.ReportMetric(float64(minAP), "minAP")
		b.ReportMetric(float64(most), "sigs")
		b.ReportMetric(float64(core.SigLowerBound(17, 8)), "bound")
	})
	b.Run("replay-breaks-strawman", func(b *testing.B) {
		broke := 0
		for i := 0; i < b.N; i++ {
			out, err := audit.ReplayAttack(ctx, strawman.Broadcast{}, 9, 3, nil)
			if err != nil {
				b.Fatal(err)
			}
			if out.Broke() {
				broke++
			}
		}
		if broke != b.N {
			b.Fatalf("attack broke %d/%d runs", broke, b.N)
		}
	})
}

// BenchmarkE7Unauth — Corollary 1: the unauthenticated baseline against
// the n(t+1)/4 message bound.
func BenchmarkE7Unauth(b *testing.B) {
	for _, cfg := range []struct{ n, t int }{{7, 2}, {10, 3}, {13, 4}} {
		b.Run(benchName("t", cfg.t), func(b *testing.B) {
			runBA(b, lsp.Protocol{}, cfg.n, cfg.t, nil, sig.NewPlain(cfg.n))
			b.ReportMetric(float64(core.MsgLowerBoundUnauth(cfg.n, cfg.t)), "lower-bound")
		})
	}
}

// BenchmarkE8MsgLowerBound — Theorem 2: the starvation audit.
func BenchmarkE8MsgLowerBound(b *testing.B) {
	ctx := context.Background()
	for _, cfg := range []struct{ n, t int }{{9, 4}, {17, 8}} {
		b.Run(benchName("t", cfg.t), func(b *testing.B) {
			var minRecv, total int
			for i := 0; i < b.N; i++ {
				a, err := audit.StarvationAudit(ctx, alg1.Protocol{}, cfg.n, cfg.t, nil)
				if err != nil {
					b.Fatal(err)
				}
				minRecv, total = a.MinReceived, a.TotalMessages
			}
			b.ReportMetric(float64(minRecv), "min-into-B")
			b.ReportMetric(float64(total), "msgs")
			b.ReportMetric(float64(core.MsgLowerBound(cfg.n, cfg.t)), "bound")
		})
	}
}

// BenchmarkE9Tradeoff — the introduction's phase/message trade-off via
// Algorithm 3 with s = ⌈t/(2α)⌉ at n ≫ t.
func BenchmarkE9Tradeoff(b *testing.B) {
	const n, t = 1024, 8
	for _, alpha := range []int{1, 2, 4} {
		s := (t + 2*alpha - 1) / (2 * alpha)
		b.Run(benchName("alpha", alpha), func(b *testing.B) {
			runBA(b, alg3.Protocol{S: s}, n, t, nil, nil)
			b.ReportMetric(float64(core.TradeoffPhases(t, alpha)), "paper-phases")
		})
	}
}

// BenchmarkE10Baselines — the head-to-head message comparison against the
// Dolev-Strong baseline.
func BenchmarkE10Baselines(b *testing.B) {
	const n, t = 256, 4
	b.Run("dolev-strong", func(b *testing.B) { runBA(b, dolevstrong.Protocol{}, n, t, nil, nil) })
	b.Run("alg3-s16", func(b *testing.B) { runBA(b, alg3.Protocol{S: 16}, n, t, nil, nil) })
	b.Run("alg5-s4", func(b *testing.B) { runBA(b, alg5.Protocol{S: 4}, n, t, nil, nil) })
}

// BenchmarkAblationPoW — what Algorithm 5's proof-of-work gating buys:
// identical runs with the gate on and off; the "msgs" metric is the
// finding (the ungated variant re-activates every subtree every block).
func BenchmarkAblationPoW(b *testing.B) {
	const n, t, s = 200, 3, 3
	b.Run("gated", func(b *testing.B) { runBA(b, alg5.Protocol{S: s}, n, t, nil, nil) })
	b.Run("ungated", func(b *testing.B) { runBA(b, alg5.Protocol{S: s, DisablePoW: true}, n, t, nil, nil) })
}

// BenchmarkAblationExchange — the §5 Θ(Nt) relay exchange against the
// Theorem 6 O(N^1.5) grid, across the crossover at t ≈ √N.
func BenchmarkAblationExchange(b *testing.B) {
	for _, cfg := range []struct{ m, t int }{{8, 2}, {8, 16}, {16, 4}, {16, 32}} {
		n := cfg.m * cfg.m
		b.Run(benchName("grid/N", n)+benchName("/t", cfg.t), func(b *testing.B) {
			runBA(b, alg4.Protocol{}, n, cfg.t, nil, nil)
		})
		b.Run(benchName("relay/N", n)+benchName("/t", cfg.t), func(b *testing.B) {
			runBA(b, alg4.RelayProtocol{}, n, cfg.t, nil, nil)
		})
	}
}

// BenchmarkAblationSchemes — signing-substrate cost: the same Algorithm 2
// run over HMAC vs Ed25519 (wall-clock only; the exchange counts are
// identical by construction).
func BenchmarkAblationSchemes(b *testing.B) {
	const t = 4
	n := 2*t + 1
	b.Run("hmac", func(b *testing.B) { runBA(b, alg2.Protocol{}, n, t, nil, sig.NewHMAC(n, 1)) })
	b.Run("ed25519", func(b *testing.B) {
		scheme, err := sig.NewEd25519(n, nil)
		if err != nil {
			b.Fatal(err)
		}
		runBA(b, alg2.Protocol{}, n, t, nil, scheme)
	})
}

// BenchmarkICOverhead — interactive consistency as n parallel instances:
// the message cost is exactly n × the base protocol's.
func BenchmarkICOverhead(b *testing.B) {
	const n, t = 7, 2
	b.Run("base", func(b *testing.B) { runBA(b, dolevstrong.Protocol{}, n, t, nil, nil) })
	b.Run("ic", func(b *testing.B) { runBA(b, ic.Protocol{Base: dolevstrong.Protocol{}}, n, t, nil, nil) })
}

func benchName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}
