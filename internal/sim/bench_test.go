package sim_test

import (
	"context"
	"strconv"
	"testing"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// flooder broadcasts a fixed payload every phase — a throughput stress for
// the engine's delivery path.
type flooder struct {
	id      ident.ProcID
	payload []byte
}

func (f *flooder) Step(ctx *sim.Context, _ []sim.Envelope) error {
	if ctx.Phase() > 1 {
		return nil
	}
	for i := 0; i < ctx.N(); i++ {
		to := ident.ProcID(i)
		if to == f.id {
			continue
		}
		if err := ctx.Send(to, f.payload, nil, 0); err != nil {
			return err
		}
	}
	return nil
}

func (f *flooder) Decide() (ident.Value, bool) { return 0, true }

// BenchmarkEngineBroadcast measures raw engine throughput: n² messages per
// run across one phase.
func BenchmarkEngineBroadcast(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(benchName(n), func(b *testing.B) {
			payload := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodes := make([]sim.Node, n)
				for j := range nodes {
					nodes[j] = &flooder{id: ident.ProcID(j), payload: payload}
				}
				eng := new(sim.Engine)
				err := eng.Reset(sim.Config{N: n, Phases: 1}, nodes)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*(n-1)), "msgs/run")
		})
	}
}

// BenchmarkEngineHotPath exercises the full engine fast path end to end: a
// fault-free Dolev-Strong run at n=256 (t=4), the configuration dominated by
// inbox buffering, per-phase context setup and sorted-delivery checks rather
// than by protocol logic.
func BenchmarkEngineHotPath(b *testing.B) {
	const n, t = 256, 4
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(ctx, core.Config{
			Protocol: dolevstrong.Protocol{}, N: n, T: t, Value: ident.V1, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := res.Decision(0, ident.V1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead quantifies the tracing tax on the broadcast stress:
// "disabled" is the nil-sink fast path (one nil check per potential event,
// zero allocations — the default everyone pays), "nop" adds the interface
// dispatch with a discarding sink, and "ring" adds bounded retention. The
// disabled case must track BenchmarkEngineBroadcast within noise.
func BenchmarkTraceOverhead(b *testing.B) {
	const n = 64
	payload := make([]byte, 64)
	run := func(b *testing.B, sink trace.Sink) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nodes := make([]sim.Node, n)
			for j := range nodes {
				nodes[j] = &flooder{id: ident.ProcID(j), payload: payload}
			}
			eng := new(sim.Engine)
			err := eng.Reset(sim.Config{N: n, Phases: 1, Trace: sink}, nodes)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n*(n-1)), "msgs/run")
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("nop", func(b *testing.B) { run(b, trace.Nop{}) })
	b.Run("ring", func(b *testing.B) {
		ring := trace.NewRing(4096)
		run(b, ring)
	})
}

func benchName(n int) string {
	return "n=" + strconv.Itoa(n)
}
