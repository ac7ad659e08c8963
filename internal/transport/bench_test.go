package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// BenchmarkMeshWarmVsCold is the headline number for the warm-mesh tentpole:
// one agreement instance per iteration, either over a fresh mesh torn down
// every time (cold, the old RunCluster behaviour) or over a single warm mesh
// reused across iterations. The gap is the dial/teardown tax the warm path
// removes.
func BenchmarkMeshWarmVsCold(b *testing.B) {
	ctx := context.Background()
	netCfg := Net{PhaseTimeout: 10 * time.Second}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := meshConfig(ident.V1, int64(i))
			if _, err := RunCluster(ctx, cfg, netCfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		m, err := NewMesh(ctx, 3, netCfg)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := meshConfig(ident.V1, int64(i))
			if _, err := m.Run(ctx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// cpuTime is the user and system time the process has consumed so far.
func cpuTime(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delayConfig is the ledger's mesh-delay instance without its fault plan.
func delayConfig(seed int64) core.Config {
	return core.Config{Protocol: alg1.Protocol{}, N: 7, T: 3, Value: ident.V1, Seed: seed}
}

// BenchmarkMeshLinkDelay is the number next to the hold: warm alg1 n=7 t=3
// instances under a 2 ms link delay, on one mesh and on two running side by
// side (the ledger's two shards; run with -cpu 2), at value 1 — every correct
// processor has halted by phase 2, so an instance holds once — and at value
// 0, which runs the whole schedule. remainder_ms/op is what an instance costs
// beyond a delay per phase boundary it stepped past (holds/op, read from each
// run's EndPhase), wakes/op how many timer expiries paid for its holds, and
// cpu_ms/op the user+system time one instance burns — mostly the 42 writes
// and 84 reads of each phase, which run inside the delay, so saving them
// shows here and no longer in the wall clock. A phase is barrier (frames land
// about 0.35 ms after their senders' instants) → hold → wake (timerfd to the
// first peer about 0.09 ms, the last of seven stepped about 0.12 ms later) →
// step → instant → writes; only the wake and the steps are left in the
// remainder, about 0.4 ms an instance at either value on 2 CPUs.
func BenchmarkMeshLinkDelay(b *testing.B) {
	const delay = 2 * time.Millisecond
	ctx := context.Background()
	for _, v := range []ident.Value{ident.V1, ident.V0} {
		for _, meshes := range []int{1, 2} {
			b.Run(fmt.Sprintf("%v/meshes=%d", v, meshes), func(b *testing.B) {
				config := func(seed int64) core.Config {
					cfg := delayConfig(seed)
					cfg.Value = v
					return cfg
				}
				ms := make([]*Mesh, meshes)
				for i := range ms {
					m, err := NewMesh(ctx, 7, Net{PhaseTimeout: 10 * time.Second, LinkDelay: delay})
					if err != nil {
						b.Fatal(err)
					}
					defer m.Close()
					if _, err := m.Run(ctx, config(0)); err != nil {
						b.Fatal(err)
					}
					ms[i] = m
				}
				wakes := func() (n uint64) {
					for _, m := range ms {
						n += m.waker.wakes.Load()
					}
					return n
				}
				wakes0, cpu0 := wakes(), cpuTime(b)
				var holds atomic.Int64 // phase boundaries the instances stepped past
				b.ResetTimer()
				var wg sync.WaitGroup
				for _, m := range ms {
					wg.Add(1)
					go func(m *Mesh) {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							res, err := m.Run(ctx, config(int64(i)))
							if err != nil {
								b.Error(err)
								return
							}
							holds.Add(int64(res.EndPhase - 1))
						}
					}(m)
				}
				wg.Wait()
				ops := float64(meshes * b.N)
				perOp, holdsPerOp := b.Elapsed().Seconds()/float64(b.N), float64(holds.Load())/ops
				b.ReportMetric(1e3*(perOp-holdsPerOp*delay.Seconds()), "remainder_ms/op")
				b.ReportMetric(holdsPerOp, "holds/op")
				b.ReportMetric(float64(wakes()-wakes0)/ops, "wakes/op")
				b.ReportMetric(1e3*(cpuTime(b)-cpu0).Seconds()/ops, "cpu_ms/op")
			})
		}
	}
}

// TestMeshRunAllocationBudget pins what one warm instance allocates. A
// mesh's peers live as long as the mesh — barrier slots, outgoing rows,
// send instants, timeout timer and link-delay hold channel are reset per
// epoch, not made — and a processor's context lives in the mesh's engine, so
// what is left is the epoch's own: the set-up of its nodes, its routing tag,
// a goroutine per peer and its result. A 50 µs delay would be over before
// its holds are asked for, hence 1 ms here. alg1 n=7 t=3 makes 19; history:
// 336 while each peer built a context per phase, 270 with the step shared,
// 203 with peers, hold channels and timers made per epoch. A change that
// allocates per phase again adds 7 per phase and object.
func TestMeshRunAllocationBudget(t *testing.T) {
	ctx := context.Background()
	m, err := NewMesh(ctx, 7, Net{PhaseTimeout: 10 * time.Second, LinkDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seed := int64(0)
	run := func() {
		seed++
		if _, err := m.Run(ctx, delayConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // grow the writers, the readers' scratch and the peers' rows
		run()
	}
	const budget = 30
	if avg := testing.AllocsPerRun(50, run); avg > budget {
		t.Fatalf("a warm instance allocates %.1f, budget %d", avg, budget)
	}
}

// loopbackPair returns two ends of a real TCP connection. The benchmarks use
// TCP rather than net.Pipe so the kernel's socket buffer absorbs the write:
// net.Pipe is unbuffered and would serialize writer and reader.
func loopbackPair(tb testing.TB) (net.Conn, net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	bConn, ok := <-ch
	if !ok {
		tb.Fatal("accept failed")
	}
	return a, bConn
}

func benchEnvelopes() []sim.Envelope {
	return []sim.Envelope{
		{From: 1, To: 0, Phase: 4, Payload: []byte("value:1|sig-chain-material"), Signers: []ident.ProcID{1, 2, 3}, SigTotal: 3},
		{From: 1, To: 0, Phase: 4, Payload: []byte("value:0|second-message"), Signers: []ident.ProcID{1, 5}, SigTotal: 2},
	}
}

// BenchmarkFramePath measures the zero-alloc frame path end to end on a real
// TCP loopback socket: one encode+write and one read+decode per iteration,
// with the reader's scratch in its steady state.
func BenchmarkFramePath(b *testing.B) {
	bench := func(b *testing.B, msgs []sim.Envelope) {
		a, c := loopbackPair(b)
		defer func() { _ = a.Close() }()
		defer func() { _ = c.Close() }()
		w := wire.NewWriter(256)
		fr := &frameReader{to: 0}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := writeFrame(a, w, 0, 0, 1, 4, 1, msgs); err != nil {
				b.Fatal(err)
			}
			if _, err := fr.readFrame(c); err != nil {
				b.Fatal(err)
			}
			if _, _, decoded, err := fr.decode(); err != nil {
				b.Fatal(err)
			} else if len(decoded) != len(msgs) {
				b.Fatalf("decoded %d messages, want %d", len(decoded), len(msgs))
			}
		}
	}
	b.Run("empty", func(b *testing.B) { bench(b, nil) })
	b.Run("signed", func(b *testing.B) { bench(b, benchEnvelopes()) })
}

// TestFramePathAllocsBudget is the regression guard behind BENCH_005: once
// the writer and the reader's scratch have grown, a frame's encode, write,
// read and decode allocate nothing.
func TestFramePathAllocsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race wrappers")
	}
	a, c := loopbackPair(t)
	defer func() { _ = a.Close() }()
	defer func() { _ = c.Close() }()
	w := wire.NewWriter(256)
	fr := &frameReader{to: 0}
	msgs := benchEnvelopes()
	roundTrip := func() {
		if err := writeFrame(a, w, 0, 0, 1, 4, 1, msgs); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.readFrame(c); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := fr.decode(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // grow the writer and the reader's scratch
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("frame path allocates %.2f/op, want 0", avg)
	}
}
