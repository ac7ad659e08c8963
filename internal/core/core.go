// Package core is the public facade of the library: it wires a protocol, an
// adversary, a signature scheme and the synchronous engine into a single
// Run call, checks the two Byzantine Agreement conditions on the outcome,
// and exposes the closed-form bounds proved by the paper so callers
// (benchmarks, experiments, tests) can compare measured counts against them.
//
// Config is also the unified run description shared with the TCP transport:
// package transport consumes the same struct (via transport.RunCluster) and
// reuses Runner.Setup and CheckDecisions from here, so the two substrates cannot
// drift in how they default schemes, resolve faulty sets, build nodes or
// judge agreement.
//
// Byzantine Agreement (paper, Section 1):
//
//	(i)  all correctly operating processors agree on the same value;
//	(ii) if the transmitter is correct, all correct processors agree on its
//	     value.
package core

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"slices"

	"byzex/internal/adversary"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/trace"
)

// Agreement violation errors.
var (
	// ErrNoDecision indicates a correct processor failed to decide.
	ErrNoDecision = errors.New("core: correct processor did not decide")
	// ErrDisagreement indicates two correct processors decided differently
	// (violates condition (i)).
	ErrDisagreement = errors.New("core: correct processors disagree")
	// ErrValidity indicates the correct transmitter's value was not adopted
	// (violates condition (ii)).
	ErrValidity = errors.New("core: decision differs from correct transmitter's value")
)

// Config describes one protocol execution.
type Config struct {
	// Protocol is the agreement algorithm to run.
	Protocol protocol.Protocol
	// N and T are the system size and fault bound.
	N, T int
	// Transmitter defaults to processor 0.
	Transmitter ident.ProcID
	// Value is the transmitter's input value.
	Value ident.Value
	// Scheme is the signature scheme; nil selects HMAC keyed from Seed.
	Scheme sig.Scheme
	// Adversary chooses and drives faulty processors; nil means fault-free.
	Adversary adversary.Adversary
	// FaultyOverride, when non-nil, is the faulty set as given: it replaces
	// both the adversary's Corrupt choice and the fault plan's affected
	// processors (see Runner.Setup). The lower-bound constructions name
	// their coalition this way.
	FaultyOverride *ident.Set
	// Seed drives all deterministic randomness in the run.
	Seed int64
	// Observer, when non-nil, sees every envelope the in-memory engine
	// accepts (see sim.Config); audit.Record attaches a History this way.
	// The TCP mesh does not call it.
	Observer sim.Observer
	// Rushing grants the adversary the rushing power (see sim.Config).
	Rushing bool
	// Trace receives structured execution events (see package trace). When
	// nil, Run falls back to the sink carried by the context (if any), so
	// orchestration layers can inject per-worker sinks without plumbing.
	Trace trace.Sink
	// Faults is a compiled fault-injection plan (see package faultnet),
	// honored by both substrates: the in-memory engine applies it on its
	// delivery path, the TCP transport at the frame layer. Unless
	// FaultyOverride is set, Runner.Setup counts the processors the plan
	// affects (Plan.Affected) as faulty, so the agreement judge attributes
	// the injected misbehavior to them; nil injects nothing.
	Faults *faultnet.Plan
}

// Result is the outcome of a Run.
type Result struct {
	// Sim carries decisions and metrics.
	Sim *sim.Result
	// Faulty is the corrupted set used in the run.
	Faulty ident.Set
	// Phases is the protocol's scheduled phase count for (n, t): an upper
	// bound, since a run ends once every correct processor has halted
	// (Sim.EndPhase is the phase it ended at).
	Phases int
	// Nodes are the state machines after the run, indexed by processor id.
	// Callers can type-assert protocol-specific interfaces (e.g.
	// alg2.ProofHolder) to extract artifacts such as transferable proofs.
	Nodes []sim.Node
}

// Decision returns the common decision of the correct processors, or an
// agreement violation error. transmitterValue is used for condition (ii)
// when the transmitter was correct.
func (r *Result) Decision(transmitter ident.ProcID, transmitterValue ident.Value) (ident.Value, error) {
	return CheckDecisions(r.Sim.Decisions, r.Faulty, transmitter, transmitterValue)
}

// CheckDecisions verifies both Byzantine Agreement conditions over a raw
// decision map and returns the common decision. It is the single agreement
// judge shared by both substrates, the experiment sweeps and the adversary
// search, the lower-bound attacks and basim's verdict: condition (i) is
// always checked; condition (ii) only when the transmitter is outside the
// faulty set, and its ErrValidity still carries the value the correct
// processors agreed on, for callers that judge unanimity only. Processors are
// judged in ascending id order and the first offender is named ("p2 decided
// v=1, others v=0"), so the error does not depend on map iteration.
func CheckDecisions(decisions map[ident.ProcID]sim.Decision, faulty ident.Set, transmitter ident.ProcID, transmitterValue ident.Value) (ident.Value, error) {
	var (
		ids     []ident.ProcID // nil, nothing allocated, while the keys are 0..len-1 as both substrates fill them
		got     ident.Value
		haveAny bool
	)
	for i := 0; i < len(decisions); i++ {
		id := ident.ProcID(i)
		if ids != nil {
			id = ids[i]
		}
		d, ok := decisions[id]
		switch {
		case !ok: // keyed some other way: start over on the sorted keys
			for k := range decisions {
				ids = append(ids, k)
			}
			slices.Sort(ids)
			i, haveAny = -1, false
		case faulty.Has(id):
		case !d.Decided:
			return 0, fmt.Errorf("%w: %v", ErrNoDecision, id)
		case !haveAny:
			got, haveAny = d.Value, true
		case d.Value != got:
			return 0, fmt.Errorf("%w: %v decided %v, others %v", ErrDisagreement, id, d.Value, got)
		}
	}
	if !haveAny {
		return 0, fmt.Errorf("%w: no correct processors", ErrNoDecision)
	}
	if !faulty.Has(transmitter) && got != transmitterValue {
		return got, fmt.Errorf("%w: decided %v, transmitter sent %v", ErrValidity, got, transmitterValue)
	}
	return got, nil
}

// Setup is the prepared state of a run: defaults resolved, faulty set
// chosen, state machines built. It is produced by Runner.Setup and consumed
// by both execution substrates — Run hands the nodes to the in-memory engine,
// transport.RunCluster hands them to TCP peers.
type Setup struct {
	// Verifier is the per-run verified-prefix cache every node verifies
	// through. It is safe for concurrent use, so the TCP transport shares
	// it across peer goroutines just as the engine shares it across nodes.
	Verifier *sig.CachedVerifier
	// Faulty is the resolved corrupted set.
	Faulty ident.Set
	// Phases is the protocol's phase schedule for (n, t).
	Phases int
	// Nodes are the per-processor state machines (adversary nodes for
	// corrupted processors, protocol nodes otherwise).
	Nodes []sim.Node
}

// Runner runs instances one after another, keeping what a template fixes:
// one verified-prefix cache (Reset before every instance, so no prefix crosses
// instances), the node slice, the Setup and the engine's arenas. The faulty
// set, nodes, decisions and report are fresh per instance. A Runner is not
// safe for concurrent use; its Setup and a Result's Nodes are valid only
// until its next call.
type Runner struct {
	verifier sig.CachedVerifier
	setup    Setup
	engine   sim.Engine
}

// NewSetup is new(Runner).Setup: a cold Setup whose storage nobody reuses.
func NewSetup(cfg Config) (*Setup, error) { return new(Runner).Setup(cfg) }

// Setup validates cfg, resolves defaults (scheme, faulty set) and builds
// the node set — everything a substrate needs before it starts delivering
// messages. Both Run and transport's meshes go through here, so scheme
// defaulting, corruption choice and node construction cannot diverge
// between the in-memory engine and the TCP cluster.
//
// Setup is the one place a run's faulty set is decided: FaultyOverride when
// set, else the adversary's Corrupt draw united with the processors the
// fault plan affects — with no adversary the affected set alone. A set
// beyond t is refused with sim.ErrTooManyFaulty.
func (r *Runner) Setup(cfg Config) (*Setup, error) {
	if cfg.Protocol == nil {
		return nil, errors.New("core: nil protocol")
	}
	// One builder makes every node of this run, corrupted processors' inner
	// nodes included, and its blocks are this run's: nothing of them is kept
	// for the next instance. NewRun refuses what Check does.
	run, err := cfg.Protocol.NewRun(cfg.N, cfg.T)
	if err != nil {
		return nil, err
	}
	scheme := cfg.Scheme
	if scheme == nil {
		scheme = sig.NewHMAC(cfg.N, cfg.Seed^0x5ee_d516)
	}

	// Determine the faulty set. The processors a fault plan affects count
	// as faulty so the agreement judge discounts them. With an adversary
	// every faulty processor runs its strategy; without one they keep
	// running correct protocol code — a crash or partition victim is not
	// Byzantine, merely unheard.
	var faulty ident.Set
	switch {
	case cfg.FaultyOverride != nil:
		faulty = cfg.FaultyOverride.Clone()
	case cfg.Adversary != nil:
		// Corruption draws from a stream seeded with Seed; each faulty
		// processor's strategy then draws from its own (Seed, id) stream.
		faulty = cfg.Adversary.Corrupt(cfg.N, cfg.T, cfg.Transmitter, mrand.New(mrand.NewSource(cfg.Seed)))
		if cfg.Faults != nil {
			faulty = faulty.Union(cfg.Faults.Affected(cfg.N))
		}
	case cfg.Faults != nil:
		faulty = cfg.Faults.Affected(cfg.N)
	}
	var env *adversary.Env
	// Refuse what the engine would, before a node is built or an event emitted.
	phases := cfg.Protocol.Phases(cfg.N, cfg.T)
	if err := (sim.Config{N: cfg.N, T: cfg.T, Transmitter: cfg.Transmitter, Phases: phases, Faulty: faulty, Faults: cfg.Faults}).Validate(); err != nil {
		return nil, err
	}
	if cfg.Adversary != nil {
		st, err := adversary.NewState(faulty, scheme, cfg.Seed)
		if err != nil {
			return nil, err
		}
		env = &adversary.Env{Run: run, State: st}
	}

	// All nodes verify through one per-run verified-prefix cache: a relayed
	// chain pays cryptography only for links not already checked this run
	// (sound because cache keys commit to the full signing input; see
	// sig.CachedVerifier). Sharing across nodes is free — verification is
	// objective, and the cache is safe for the TCP transport's concurrency.
	r.verifier.ResetFor(scheme, cfg.N)

	// Build the node set: protocol nodes for correct processors, adversary
	// nodes for corrupted ones.
	nodes := slices.Grow(r.setup.Nodes[:0], cfg.N)[:cfg.N]
	for i := range nodes {
		id := ident.ProcID(i)
		signer, err := scheme.Signer(id)
		if err != nil {
			return nil, fmt.Errorf("core: signer for %v: %w", id, err)
		}
		ncfg := protocol.NodeConfig{
			ID:          id,
			N:           cfg.N,
			T:           cfg.T,
			Transmitter: cfg.Transmitter,
			Value:       cfg.Value,
			Signer:      signer,
			Verifier:    &r.verifier,
		}
		if faulty.Has(id) && env != nil {
			nodes[i], err = cfg.Adversary.NewNode(ncfg, env)
		} else {
			nodes[i], err = run.NewNode(ncfg)
		}
		if err != nil {
			return nil, fmt.Errorf("core: building node %v: %w", id, err)
		}
	}
	r.setup = Setup{Verifier: &r.verifier, Faulty: faulty, Phases: phases, Nodes: nodes}
	return &r.setup, nil
}

// ResolveTrace returns the sink a run should emit to: the explicitly
// configured one, else the sink carried by ctx, else nil (disabled).
func (c Config) ResolveTrace(ctx context.Context) trace.Sink {
	if c.Trace != nil {
		return c.Trace
	}
	return trace.FromContext(ctx)
}

// EmitCorruptions reports the faulty set to sink in ascending id order
// (no-op for a nil sink).
func EmitCorruptions(sink trace.Sink, faulty ident.Set) {
	if sink == nil {
		return
	}
	faulty.Each(func(id ident.ProcID) {
		sink.Emit(trace.Event{Kind: trace.KindCorrupt, From: id, To: ident.None})
	})
}

// Run is new(Runner).Run: one cold instance.
func Run(ctx context.Context, cfg Config) (*Result, error) { return new(Runner).Run(ctx, cfg) }

// Run executes the configured protocol instance to completion.
func (r *Runner) Run(ctx context.Context, cfg Config) (*Result, error) {
	setup, err := r.Setup(cfg)
	if err != nil {
		return nil, err
	}
	sink := cfg.ResolveTrace(ctx)
	EmitCorruptions(sink, setup.Faulty)
	setup.Verifier.SetTrace(sink)

	simCfg := sim.Config{
		N:           cfg.N,
		T:           cfg.T,
		Transmitter: cfg.Transmitter,
		Phases:      setup.Phases,
		Faulty:      setup.Faulty,
		Rushing:     cfg.Rushing,
		Trace:       sink,
		Faults:      cfg.Faults,
		Observer:    cfg.Observer,
	}
	if err := r.engine.Reset(simCfg, setup.Nodes); err != nil {
		return nil, err
	}
	res, err := r.engine.Run(ctx)
	if err != nil {
		return nil, err
	}
	hits, misses := setup.Verifier.Stats()
	res.Report.SigCacheHits = int(hits)
	res.Report.SigCacheMisses = int(misses)
	return &Result{Sim: res, Faulty: setup.Faulty, Phases: setup.Phases, Nodes: setup.Nodes}, nil
}

// RunAndCheck runs the configuration and verifies both Byzantine Agreement
// conditions, returning the common decision.
func RunAndCheck(ctx context.Context, cfg Config) (*Result, ident.Value, error) {
	res, err := Run(ctx, cfg)
	if err != nil {
		return nil, 0, err
	}
	v, err := res.Decision(cfg.Transmitter, cfg.Value)
	return res, v, err
}
