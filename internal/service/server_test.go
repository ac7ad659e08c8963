package service_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/service"
)

// startServer runs a Service behind the line protocol on an ephemeral port
// until the test's cleanup.
func startServer(t testing.TB, cfg service.Config) (*service.Service, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	svc, err := service.New(ctx, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- service.Serve(ctx, ln, svc) }()
	t.Cleanup(func() {
		svc.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return svc, ln.Addr().String()
}

// TestServeLoad100ConcurrentInstances is the acceptance scenario: the sim
// substrate serving alg1 n=7 t=3, a closed-loop load of 100 concurrent
// connections, and every observed instance re-executed serially with
// core.Run on the same seed — decisions must match byte for byte.
func TestServeLoad100ConcurrentInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("100-connection load run")
	}
	tmpl := template(17)
	svc, addr := startServer(t, service.Config{
		Template:   tmpl,
		Shards:     100,
		QueueDepth: 256,
	})

	ctx := context.Background()
	load, err := service.RunLoad(ctx, service.LoadConfig{
		Addr:     addr,
		Conns:    100,
		Requests: 3,
		ValueFor: func(c, i int) ident.Value { return ident.Value((c + i) % 2) },
	})
	if err != nil {
		t.Fatal(err)
	}

	if load.Submitted != 300 {
		t.Fatalf("submitted %d, want 300", load.Submitted)
	}
	if len(load.Instances) < 100 {
		t.Fatalf("observed %d instances, want >= 100", len(load.Instances))
	}
	if load.Percentile(50) <= 0 || load.Percentile(99) < load.Percentile(50) {
		t.Fatalf("latency percentiles inconsistent: p50=%v p99=%v", load.Percentile(50), load.Percentile(99))
	}
	if load.AmortizedMsgsPerValue() <= 0 {
		t.Fatal("no amortized message accounting")
	}

	// Verify every instance against a serial run of the same seed — the
	// reply carries (seed, packed value); the template is shared.
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for id, reply := range load.Instances {
		wg.Add(1)
		go func(id uint64, reply service.Reply) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := tmpl
			cfg.Value = reply.Packed
			cfg.Seed = reply.Seed
			serial, err := core.Run(ctx, cfg)
			if err != nil {
				t.Errorf("instance %d serial: %v", id, err)
				return
			}
			decided, err := serial.Decision(cfg.Transmitter, cfg.Value)
			if err != nil {
				t.Errorf("instance %d serial decision: %v", id, err)
				return
			}
			if decided != reply.Decided || !reply.Committed {
				t.Errorf("instance %d: served %v committed=%v, serial %v", id, reply.Decided, reply.Committed, decided)
			}
			if serial.Sim.Report.MessagesCorrect != reply.Msgs || serial.Sim.Report.SignaturesCorrect != reply.Sigs {
				t.Errorf("instance %d: served msgs/sigs %d/%d, serial %d/%d", id,
					reply.Msgs, reply.Sigs, serial.Sim.Report.MessagesCorrect, serial.Sim.Report.SignaturesCorrect)
			}
		}(id, reply)
	}
	wg.Wait()

	if st := svc.Stats(); st.ValuesDecided != 300 {
		t.Fatalf("service stats: %s", st.String())
	}
}

// TestServeBatchingOverWire checks the wire protocol reports shared
// instances for batched submissions and that uncommitted batches never
// happen with a correct transmitter.
func TestServeBatchingOverWire(t *testing.T) {
	_, addr := startServer(t, service.Config{
		Template:   multiTemplate(23),
		Shards:     2,
		QueueDepth: 64,
		BatchSize:  8,
		Linger:     2 * time.Millisecond,
	})

	load, err := service.RunLoad(context.Background(), service.LoadConfig{
		Addr:     addr,
		Conns:    16,
		Requests: 4,
		ValueFor: func(c, i int) ident.Value { return ident.Value(c*100 + i) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if load.Submitted != 64 {
		t.Fatalf("submitted %d, want 64", load.Submitted)
	}
	batched := false
	for id, reply := range load.Instances {
		if !reply.Committed {
			t.Fatalf("instance %d not committed", id)
		}
		if reply.Batch > 1 {
			batched = true
		}
	}
	if !batched {
		t.Fatal("no instance carried a batch > 1 despite a saturated 2-wide executor")
	}
	if load.ValuesServed != 64 {
		t.Fatalf("values served %d, want 64", load.ValuesServed)
	}
}

// TestServeRejectsAndStats checks the wire mapping of typed errors and the
// stats query.
func TestServeRejectsAndStats(t *testing.T) {
	release := make(chan struct{})
	slow := func(ctx context.Context, cfg core.Config) (service.Outcome, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return service.RunSim(ctx, cfg)
	}
	svc, addr := startServer(t, service.Config{
		Template:   template(29),
		Substrate:  service.SharedRun(slow),
		Shards:     1,
		QueueDepth: 1,
	})

	// Saturate in-process (Submit never blocks) until the queue is full:
	// 1 executing + 1 staged by the batcher + 1 queued. Nothing drains
	// until release, so the wire probe below sees a full queue for sure.
	var chans []<-chan service.Result
	fullStreak := 0
	for i := 0; i < 5000 && fullStreak < 3; i++ {
		ch, err := svc.Submit(1)
		switch {
		case err == nil:
			chans = append(chans, ch)
			fullStreak = 0
		case errors.Is(err, service.ErrQueueFull):
			// Wait for the batcher to settle: only a stable streak of
			// rejections means the pipeline is pinned end to end.
			fullStreak++
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatal(err)
		}
	}
	if fullStreak < 3 {
		t.Fatal("queue never filled")
	}

	probe, err := service.DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = probe.Close() }()
	if _, err := probe.Submit(0); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("wire probe got %v, want ErrQueueFull", err)
	}
	// The wire stats are a typed snapshot: the probe's rejection above must
	// already be visible in it, no string-matching required.
	wireStats, err := probe.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if wireStats.RejectedFull < 1 {
		t.Fatalf("wire stats missed the probe's rejection: %+v", wireStats)
	}
	if wireStats.Shards != svc.Stats().Shards {
		t.Fatalf("wire stats shards %d, want %d", wireStats.Shards, svc.Stats().Shards)
	}

	close(release)
	for _, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if st := svc.Stats(); st.RejectedFull < 2 {
		t.Fatalf("rejections not recorded on both paths: %s", st.String())
	}
}
