package service

import (
	"context"
	"sync"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/sim"
	"byzex/internal/transport"
)

// Outcome is the substrate-independent result of one agreement instance:
// the raw decision map, the information-exchange accounting and the faulty
// set, exactly the quantities core.CheckDecisions and the amortized-cost
// reporting need.
type Outcome struct {
	Decisions map[ident.ProcID]sim.Decision
	Report    metrics.Report
	Faulty    ident.Set
}

// RunFunc executes one fully-resolved instance configuration. The service
// calls it from executor workers, so implementations must be safe for
// concurrent use with distinct configs. RunSim is the in-memory substrate,
// WarmTCP hands out the TCP one per shard; tests inject failures through
// custom RunFuncs.
type RunFunc func(ctx context.Context, cfg core.Config) (Outcome, error)

// Substrate supplies each shard worker its execution handle — the single
// way to tell a Service what runs its instances (Config.Substrate).
//
// Open is called once per shard at service construction and returns the
// RunFunc that shard uses for every instance it executes; the service
// guarantees the returned handle is only ever called from its own shard,
// one instance at a time, so implementations may keep per-handle mutable
// state (connection meshes, caches) without locking. Close is called once
// per shard during Service.Close, after every instance has been delivered,
// so the handle is guaranteed idle; implementations release whatever Open
// acquired. Stateless substrates (the in-memory engine) make Close a no-op
// — see SharedRun.
type Substrate interface {
	Open(shard int) RunFunc
	Close(shard int)
}

// SharedRun adapts a single concurrency-safe RunFunc — the in-memory path
// (RunSim) or a test stub — into a Substrate: every shard shares run, and
// Close is a no-op because a shared stateless handle owns nothing per shard.
func SharedRun(run RunFunc) Substrate { return sharedRun{run: run} }

type sharedRun struct{ run RunFunc }

func (s sharedRun) Open(int) RunFunc { return s.run }
func (sharedRun) Close(int)          {}

// runners are RunSim's warm core.Runners, one per concurrent call.
var runners = sync.Pool{New: func() any { return new(core.Runner) }}

// RunSim executes the instance on the in-memory synchronous engine — the
// substrate behind `basim -transport memory` and the default for a Service.
// Each call borrows a pooled core.Runner; the Outcome shares nothing with it.
func RunSim(ctx context.Context, cfg core.Config) (Outcome, error) {
	r := runners.Get().(*core.Runner)
	defer runners.Put(r)
	res, err := r.Run(ctx, cfg)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Decisions: res.Sim.Decisions, Report: res.Sim.Report, Faulty: res.Faulty}, nil
}

// WarmTCP is a per-shard pool of warm transport meshes: each shard dials its
// n×(n-1) localhost mesh once (lazily, on its first instance) and reuses it
// for every subsequent instance, paying only the per-epoch frame traffic.
// It implements Substrate, so wiring it into a service is one assignment:
//
//	cfg.Substrate = service.NewWarmTCP(n, netCfg)
//
// A mesh is built for one cluster size; an instance with a different N is
// refused by Mesh.Run (a Service's template fixes N, so this never happens
// behind one).
type WarmTCP struct {
	n      int
	netCfg transport.Net

	mu     sync.Mutex
	meshes map[int]*transport.Mesh
}

// NewWarmTCP returns a pool of warm meshes for clusters of n processors.
func NewWarmTCP(n int, netCfg transport.Net) *WarmTCP {
	return &WarmTCP{n: n, netCfg: netCfg, meshes: make(map[int]*transport.Mesh)}
}

// Open returns the RunFunc for one shard (Substrate). The shard's mesh is
// dialed on its first instance and owned exclusively by that shard, so Run
// never contends on a mesh (the service guarantees one instance per shard
// at a time).
func (p *WarmTCP) Open(shard int) RunFunc {
	return func(ctx context.Context, cfg core.Config) (Outcome, error) {
		m, err := p.mesh(ctx, shard)
		if err != nil {
			return Outcome{}, err
		}
		res, err := m.Run(ctx, cfg)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Decisions: res.Decisions, Report: res.Report, Faulty: res.Faulty}, nil
	}
}

func (p *WarmTCP) mesh(ctx context.Context, shard int) (*transport.Mesh, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.meshes[shard]; ok {
		return m, nil
	}
	m, err := transport.NewMesh(ctx, p.n, p.netCfg)
	if err != nil {
		return nil, err
	}
	p.meshes[shard] = m
	return m, nil
}

// Close tears down one shard's mesh (Substrate); the service calls it from
// Service.Close once the shard is idle. A shard that never ran an instance
// has no mesh.
func (p *WarmTCP) Close(shard int) {
	p.mu.Lock()
	m := p.meshes[shard]
	delete(p.meshes, shard)
	p.mu.Unlock()
	if m != nil {
		m.Close()
	}
}
