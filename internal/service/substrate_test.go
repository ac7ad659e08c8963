package service_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg1"
	"byzex/internal/service"
	"byzex/internal/sig"
)

// countingSubstrate records which shards were opened and closed, delegating
// execution to the in-memory engine.
type countingSubstrate struct {
	mu     sync.Mutex
	opened []int
	closed []int
}

func (c *countingSubstrate) Open(shard int) service.RunFunc {
	c.mu.Lock()
	c.opened = append(c.opened, shard)
	c.mu.Unlock()
	return service.RunSim
}

func (c *countingSubstrate) Close(shard int) {
	c.mu.Lock()
	c.closed = append(c.closed, shard)
	c.mu.Unlock()
}

// TestSubstrateLifecycle pins the Substrate contract: Open is called once
// per shard at construction, Close once per shard during Service.Close
// (idempotently — a second Close must not re-close shards).
func TestSubstrateLifecycle(t *testing.T) {
	sub := &countingSubstrate{}
	svc, err := service.New(context.Background(), service.Config{
		Template:  multiTemplate(3),
		Shards:    3,
		Substrate: sub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sub.opened); got != 3 {
		t.Fatalf("opened %d shards at construction, want 3", got)
	}
	if res, err := svc.SubmitWait(context.Background(), 7); err != nil || res.Decided != 7 {
		t.Fatalf("submit through substrate: %v (decided %v)", err, res.Decided)
	}
	svc.Close()
	svc.Close() // idempotent
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.closed) != 3 {
		t.Fatalf("closed %d shards, want 3 (exactly once each): %v", len(sub.closed), sub.closed)
	}
	seen := map[int]bool{}
	for _, sh := range sub.closed {
		if seen[sh] {
			t.Fatalf("shard %d closed twice: %v", sh, sub.closed)
		}
		seen[sh] = true
	}
}

// TestSubstrateNilOpenFallsBack pins the construction contract of the
// Substrate path: a substrate whose Open returns nil leaves the shard on the
// in-memory engine instead of a nil handle.
func TestSubstrateNilOpenFallsBack(t *testing.T) {
	svc, err := service.New(context.Background(), service.Config{
		Template:  multiTemplate(7),
		Shards:    2,
		Substrate: nilOpenSubstrate{},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.SubmitWait(context.Background(), ident.Value(1))
	if err != nil || res.Decided != 1 {
		t.Fatalf("submit behind a nil Open: %v (decided %v)", err, res.Decided)
	}
	svc.Close()
}

// nilOpenSubstrate declines to supply per-shard handles.
type nilOpenSubstrate struct{}

func (nilOpenSubstrate) Open(int) service.RunFunc { return nil }
func (nilOpenSubstrate) Close(int)                {}

// TestRunSimConcurrentMatchesFreshRun: RunSim called from several goroutines
// at once, each borrowing a pooled core.Runner that other templates warmed,
// returns for every instance exactly what a fresh core.Run returns — still
// after the runners have gone on to later instances, so no Outcome shares
// storage with the runner it came from.
func TestRunSimConcurrentMatchesFreshRun(t *testing.T) {
	ctx := context.Background()
	silent := template(5) // one n, so runners stay warm; a silent transmitter, so phase counts differ
	transmitter := ident.NewSet(0)
	silent.Adversary, silent.FaultyOverride = adversary.Silent{}, &transmitter
	templates := []core.Config{template(3), multiTemplate(4), silent}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var got, want []service.Outcome
			for i := 0; i < 30; i++ {
				cfg := templates[(g+i)%len(templates)]
				cfg.Seed += int64(i)
				cfg.Value = ident.Value(i & 1)
				out, err := service.RunSim(ctx, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fresh, err := core.Run(ctx, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got = append(got, out)
				want = append(want, service.Outcome{Decisions: fresh.Sim.Decisions, Report: fresh.Sim.Report, Faulty: fresh.Faulty})
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("goroutine %d instance %d: %+v, fresh run %+v", g, i, got[i], want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRunSimAllocationBudget pins what one warm in-memory instance of a
// served template allocates: the pooled core.Runner keeps the signers, the
// verifier's storage and the engine's arenas and slab, so alg1 n=5 hmac pays
// only for what the instance decides: 17, against 44 for a cold core.Run.
func TestRunSimAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	ctx := context.Background()
	cfg := core.Config{Protocol: alg1.Protocol{}, N: 5, T: 2, Scheme: sig.NewHMAC(5, 11), Seed: 11}
	run := func() {
		cfg.Seed++
		cfg.Value = ident.Value(cfg.Seed & 1)
		if _, err := service.RunSim(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		run()
	}
	const budget = 20
	if avg := testing.AllocsPerRun(200, run); avg > budget {
		t.Fatalf("a warm instance allocates %.1f, budget %d", avg, budget)
	}
}
