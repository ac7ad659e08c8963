package service_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/service"
	"byzex/internal/transport"
)

// BenchmarkServiceThroughput measures decided values per second through the
// full serving pipeline (admission queue → batcher → bounded executor) on
// the in-memory substrate, and reports the amortized correct-sender message
// and signature cost per decided value. Batching is the lever the paper's
// per-instance lower bounds leave open: Ω(nt) signatures and Ω(n+t²)
// messages are paid per agreement instance, so k values per instance divide
// the constant by k — visible here as msgs/value falling with batch size.
func BenchmarkServiceThroughput(b *testing.B) {
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ctx := context.Background()
			cfg := service.Config{
				Template:   core.Config{Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Seed: 99},
				BatchSize:  batch,
				QueueDepth: 1024,
			}
			if batch > 1 {
				cfg.Linger = 100 * time.Microsecond
			}
			svc, err := service.New(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// A closed loop needs enough outstanding submitters to fill a
			// batch regardless of GOMAXPROCS (the loop blocks in SubmitWait,
			// so the goroutines cost scheduling, not CPU).
			b.SetParallelism(2 * 16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					v := ident.Value(i % 251)
					i++
					for {
						_, err := svc.SubmitWait(ctx, v)
						if errors.Is(err, service.ErrQueueFull) {
							time.Sleep(50 * time.Microsecond)
							continue
						}
						if err != nil {
							b.Error(err)
						}
						break
					}
				}
			})
			b.StopTimer()
			svc.Close()
			st := svc.Stats()
			if st.ValuesDecided < uint64(b.N) {
				b.Fatalf("decided %d of %d values", st.ValuesDecided, b.N)
			}
			b.ReportMetric(st.AmortizedMessagesPerValue(), "msgs/value")
			b.ReportMetric(st.AmortizedSignaturesPerValue(), "sigs/value")
			b.ReportMetric(float64(st.ValuesDecided)/float64(st.Instances), "values/instance")
		})
	}
}

// latencyModeledRun wraps the in-memory substrate with a fixed per-instance
// delay, modeling the regime the TCP mesh actually serves in: instance time
// dominated by network round trips (phases × RTT), not local CPU. In that
// regime sharding overlaps the waits, so throughput scales with the shard
// count even on a single core — which is the scaling BenchmarkServiceSharded
// measures. (A pure-CPU instance on one core cannot scale by sharding; the
// fixed/1-shard rows double as that baseline.)
func latencyModeledRun(d time.Duration) service.RunFunc {
	return func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return service.Outcome{}, ctx.Err()
		}
		return service.RunSim(ctx, cfg)
	}
}

// BenchmarkServiceWarmTCP sweeps shard count over the real warm-TCP
// substrate: every shard owns one long-lived mesh, so the per-instance cost
// is frame traffic only. Net.LinkDelay models WAN one-way latency (loopback
// is unrealistically fast), putting instances in the regime a deployment is
// in — wall clock dominated by network waits, which sharding overlaps.
// values/s is the headline metric of BENCH_005.json,
// expected to rise monotonically from 1 to 8 shards.
func BenchmarkServiceWarmTCP(b *testing.B) {
	netCfg := transport.Net{PhaseTimeout: 10 * time.Second, LinkDelay: 2 * time.Millisecond}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ctx := context.Background()
			tmpl := core.Config{Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Seed: 99}
			pool := service.NewWarmTCP(tmpl.N, netCfg)
			cfg := service.Config{
				Template:   tmpl,
				Shards:     shards,
				QueueDepth: 1024,
				BatchSize:  1,
				Substrate:  pool,
			}
			svc, err := service.New(ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(4 * 8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					v := ident.Value(i % 251)
					i++
					for {
						_, err := svc.SubmitWait(ctx, v)
						if errors.Is(err, service.ErrQueueFull) {
							time.Sleep(50 * time.Microsecond)
							continue
						}
						if err != nil {
							b.Error(err)
						}
						break
					}
				}
			})
			b.StopTimer()
			svc.Close()
			st := svc.Stats()
			if st.ValuesDecided < uint64(b.N) {
				b.Fatalf("decided %d of %d values", st.ValuesDecided, b.N)
			}
			if elapsed := b.Elapsed(); elapsed > 0 {
				b.ReportMetric(float64(st.ValuesDecided)/elapsed.Seconds(), "values/s")
			}
			b.ReportMetric(st.AmortizedMessagesPerValue(), "msgs/value")
		})
	}
}

// BenchmarkServiceSharded sweeps shard count × batch size over the
// latency-modeled substrate: values/s should rise roughly linearly with
// shards (the tentpole's ≥2x-at-4-shards criterion), and batches of up to
// 16 should cut msgs/value versus k=1 under the same backlog by packing
// what is queued. BENCH_004.json is its archived run.
func BenchmarkServiceSharded(b *testing.B) {
	const instLatency = 2 * time.Millisecond
	for _, shards := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1, 16} {
			b.Run(fmt.Sprintf("shards=%d/fixed%d", shards, batch), func(b *testing.B) {
				ctx := context.Background()
				cfg := service.Config{
					Template:   core.Config{Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Seed: 99},
					Substrate:  service.SharedRun(latencyModeledRun(instLatency)),
					Shards:     shards,
					QueueDepth: 1024,
					BatchSize:  batch,
				}
				svc, err := service.New(ctx, cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Enough closed-loop submitters to keep every shard busy and
				// a backlog queued (so batches fill).
				b.SetParallelism(4 * 8)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						v := ident.Value(i % 251)
						i++
						for {
							_, err := svc.SubmitWait(ctx, v)
							if errors.Is(err, service.ErrQueueFull) {
								time.Sleep(50 * time.Microsecond)
								continue
							}
							if err != nil {
								b.Error(err)
							}
							break
						}
					}
				})
				b.StopTimer()
				svc.Close()
				st := svc.Stats()
				if st.ValuesDecided < uint64(b.N) {
					b.Fatalf("decided %d of %d values", st.ValuesDecided, b.N)
				}
				elapsed := b.Elapsed()
				if elapsed > 0 {
					b.ReportMetric(float64(st.ValuesDecided)/elapsed.Seconds(), "values/s")
				}
				b.ReportMetric(st.AmortizedMessagesPerValue(), "msgs/value")
				b.ReportMetric(float64(st.ValuesDecided)/float64(st.Instances), "values/instance")
			})
		}
	}
}

// BenchmarkServiceOpenLoop measures the serving pipeline under open-loop
// (Poisson) load over the real wire: b.N arrivals at a fixed rate fan out
// over a connection pool, rejections shed. The headline metrics are the
// coordinated-omission-free latency percentiles — measured from each
// arrival's scheduled time — and the shed fraction, the numbers `make slo`
// gates on. BENCH_006.json is its archived run.
func BenchmarkServiceOpenLoop(b *testing.B) {
	const rate = 2000.0
	_, addr := startServer(b, service.Config{
		Template:   core.Config{Protocol: alg1.MultiProtocol{}, N: 7, T: 3, Seed: 99},
		Shards:     4,
		QueueDepth: 1024,
		BatchSize:  16,
	})

	// Scale the arrival window so the schedule offers roughly b.N arrivals
	// at the fixed rate (an open loop is defined by rate, not count).
	duration := time.Duration(float64(b.N) / rate * float64(time.Second))
	if duration < 50*time.Millisecond {
		duration = 50 * time.Millisecond
	}
	b.ResetTimer()
	stats, err := service.RunLoad(context.Background(), service.LoadConfig{
		Addr:     addr,
		Conns:    32,
		Rate:     rate,
		Duration: duration,
		Seed:     99,
		ValueFor: func(_, i int) ident.Value { return ident.Value(i % 251) },
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if stats.Submitted == 0 {
		b.Fatal("nothing submitted")
	}
	b.ReportMetric(float64(stats.Offered)/duration.Seconds(), "offered/s")
	b.ReportMetric(stats.Throughput(), "values/s")
	b.ReportMetric(float64(stats.Percentile(50))/1e6, "p50-ms")
	b.ReportMetric(float64(stats.Percentile(99))/1e6, "p99-ms")
	b.ReportMetric(float64(stats.Rejected)/float64(stats.Offered), "shed-frac")
}
