package service_test

import (
	"context"
	"sync"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/service"
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
