// Package search is the adversary-search optimizer: it hunts, per protocol,
// for the cheapest pair of executions a budget-respecting adversary can
// force, and compares the best-found cost against the paper's lower bounds
// (core.SigLowerBound, core.MsgLowerBound).
//
// A candidate is one point of the strategy × seed × fault-plan space
// (Candidate). Evaluating it runs the protocol twice — transmitter value 0
// and value 1 — under the same adversary and plan; the candidate is
// feasible only when both runs reach agreement on their intended value,
// and its cost is the *worse* side of the pair (eval.go). That is the
// executable form of the Theorem 1 proof shape: the adversary must leave
// both histories H and G intact, and the theorems bound the costlier one.
// Minimizing over feasible candidates therefore can never undercut the
// bounds on a correct protocol — best-found below bound, or any agreement
// violation from an in-budget candidate, is a bug and fails the gate
// loudly (CheckRows).
//
// The optimizer is a successive-halving bandit over a deterministic seed
// population (strategies × canonical fault plans), whose survivor seeds a
// simulated-annealing walk with restarts. Candidate batches are generated
// serially from one seeded RNG, evaluated in parallel on a runner.Pool
// (runner.Map preserves submission order), and folded back serially — so a
// fixed Config.Seed reproduces the identical trajectory, best candidate
// and trace at any parallelism level.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	mrand "math/rand"

	"byzex/internal/cli"
	"byzex/internal/faultnet"
	"byzex/internal/protocol"
	"byzex/internal/runner"
	"byzex/internal/sig"
	"byzex/internal/trace"
)

// ErrBadConfig reports an invalid search configuration.
var ErrBadConfig = errors.New("search: bad config")

// Config describes one search: a protocol target and the optimizer knobs.
type Config struct {
	// Protocol is the algorithm under attack; N and T size the system.
	Protocol protocol.Protocol
	N, T     int
	// Scheme is the signature scheme shared by every evaluation (nil
	// selects HMAC keyed from Seed, like core.Run). One scheme across the
	// whole search keeps costs comparable between candidates.
	Scheme sig.Scheme
	// Class selects the agreement promise candidates are judged against.
	Class cli.Class
	// Objective is the minimized cost.
	Objective Objective
	// Budget caps candidate evaluations (each is two protocol runs).
	// Defaults to 200.
	Budget int
	// Seed drives the optimizer; a fixed seed reproduces the identical
	// trajectory at any parallelism.
	Seed int64
	// Pool evaluates candidate batches; nil builds a GOMAXPROCS pool.
	Pool *runner.Pool
	// Trace receives search-progress events (search-eval, search-best,
	// search-violation); nil discards them.
	Trace trace.Sink
}

// maxViolations caps the violating evaluations a Result retains (the count
// is always exact).
const maxViolations = 8

// BestPoint is one step of the improvement trajectory: after EvalIndex
// evaluations the incumbent cost was Cost.
type BestPoint struct {
	EvalIndex int
	Cost      int
}

// Result is the outcome of one search.
type Result struct {
	// Baseline is the fault-free evaluation (candidate "none", empty plan)
	// — the protocol's honest cost, always evaluated first.
	Baseline Eval
	// Best is the cheapest feasible evaluation found, nil when none was
	// (which the gate treats as an error for correct protocols: the
	// baseline itself is feasible for them).
	Best *Eval
	// Evals counts candidate evaluations actually run; Skipped counts
	// candidates discarded before running (over budget or bad spec).
	Evals   int
	Skipped int
	// Violations counts candidates that broke the agreement promise;
	// ViolationSamples retains up to maxViolations of them in evaluation
	// order.
	Violations       int
	ViolationSamples []Eval
	// Trajectory records every incumbent improvement in order.
	Trajectory []BestPoint
}

// optimizer carries one search's mutable state; all mutation happens on the
// coordinating goroutine.
type optimizer struct {
	cfg    *Config
	ev     *evaluator
	rng    *mrand.Rand
	pool   *runner.Pool
	sink   trace.Sink
	seen   map[string]Eval
	res    *Result
	phases int
}

// Run executes one adversary search to budget exhaustion and returns the
// best-found result. The only error sources are configuration problems,
// context cancellation and engine-level failures — never candidate
// behavior.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	switch {
	case cfg.Protocol == nil:
		return nil, fmt.Errorf("%w: nil protocol", ErrBadConfig)
	case cfg.N < 2 || cfg.T < 0 || cfg.T >= cfg.N:
		return nil, fmt.Errorf("%w: n=%d t=%d", ErrBadConfig, cfg.N, cfg.T)
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 200
	}
	if cfg.Scheme == nil {
		cfg.Scheme = sig.NewHMAC(cfg.N, cfg.Seed^0x5ee_d516)
	}
	pool := cfg.Pool
	if pool == nil {
		pool = runner.New(0)
	}
	sink := cfg.Trace
	if sink == nil {
		sink = trace.Nop{}
	}
	opt := &optimizer{
		cfg:    &cfg,
		ev:     &evaluator{cfg: &cfg, transmitter: 0},
		rng:    mrand.New(mrand.NewSource(cfg.Seed)),
		pool:   pool,
		sink:   sink,
		seen:   make(map[string]Eval),
		res:    &Result{},
		phases: cfg.Protocol.Phases(cfg.N, cfg.T),
	}
	if opt.phases < 1 {
		opt.phases = 1
	}

	// Fault-free baseline first: it anchors the incumbent and measures the
	// protocol's honest cost for the gap table.
	base, err := opt.evalBatch(ctx, []Candidate{{Strategy: StratNone, Seed: cfg.Seed}})
	if err != nil {
		return nil, err
	}
	opt.res.Baseline = base[0]

	survivor, err := opt.halving(ctx)
	if err != nil {
		return nil, err
	}
	if err := opt.anneal(ctx, survivor); err != nil {
		return nil, err
	}
	return opt.res, nil
}

// evalBatch evaluates a candidate batch through the pool and folds the
// outcomes into the search state in submission order. Previously seen
// candidates are served from the memo without spending budget.
func (o *optimizer) evalBatch(ctx context.Context, cands []Candidate) ([]Eval, error) {
	keys := make([]string, len(cands))
	fresh := make([]int, 0, len(cands))
	for i, c := range cands {
		keys[i] = c.Key()
		if _, ok := o.seen[keys[i]]; !ok {
			o.seen[keys[i]] = Eval{} // claims the key; overwritten below
			fresh = append(fresh, i)
		}
	}
	evals, err := runner.Map(ctx, o.pool, len(fresh), func(ctx context.Context, i int) (Eval, error) {
		return o.ev.evaluate(ctx, cands[fresh[i]])
	})
	if err != nil {
		return nil, err
	}
	for j, e := range evals {
		o.seen[keys[fresh[j]]] = e
		o.observe(e)
	}
	out := make([]Eval, len(cands))
	for i := range cands {
		out[i] = o.seen[keys[i]]
	}
	return out, nil
}

// observe folds one fresh evaluation into the result: budget accounting,
// violation records, incumbent updates and the trace events.
func (o *optimizer) observe(e Eval) {
	if e.Skipped {
		o.res.Skipped++
		return
	}
	o.res.Evals++
	idx := o.res.Evals
	cost := 0
	if e.Feasible {
		cost = e.Cost
	}
	o.sink.Emit(trace.Event{Kind: trace.KindSearchEval, Signers: idx, Sigs: cost, Flag: e.Feasible})
	if e.Violation != nil {
		o.res.Violations++
		if len(o.res.ViolationSamples) < maxViolations {
			o.res.ViolationSamples = append(o.res.ViolationSamples, e)
		}
		o.sink.Emit(trace.Event{Kind: trace.KindSearchViolation, Signers: idx})
	}
	if e.Feasible && (o.res.Best == nil || e.Cost < o.res.Best.Cost) {
		best := e
		o.res.Best = &best
		o.res.Trajectory = append(o.res.Trajectory, BestPoint{EvalIndex: idx, Cost: e.Cost})
		o.sink.Emit(trace.Event{Kind: trace.KindSearchBest, Signers: idx, Sigs: e.Cost})
	}
}

// remaining is the unspent evaluation budget.
func (o *optimizer) remaining() int { return o.cfg.Budget - o.res.Evals }

// halvingArm is one bandit arm: a strategy/plan template whose seed
// dimension the rungs sample ever more densely.
type halvingArm struct {
	cand     Candidate // template; Seed is redrawn per pull
	score    int       // best feasible cost seen
	feasible bool
}

// halving runs the successive-halving bandit over the deterministic seed
// population: every strategy at its canonical knob plus canonical
// single-fault plans (crash / drop templates). Each rung pulls every
// surviving arm with twice as many fresh seeds, then keeps the better half
// by best-feasible cost. Returns the surviving arm's best candidate (or the
// global best when the survivor never scored).
func (o *optimizer) halving(ctx context.Context) (Candidate, error) {
	arms := o.seedArms()
	budget := o.cfg.Budget * 2 / 5
	spent := 0
	for pulls := 1; len(arms) > 1 && spent < budget && o.remaining() > 0; pulls *= 2 {
		var batch []Candidate
		owner := make([]int, 0, len(arms)*pulls)
		for ai := range arms {
			for p := 0; p < pulls; p++ {
				c := arms[ai].cand
				c.Seed = o.rng.Int63()
				batch = append(batch, c)
				owner = append(owner, ai)
			}
		}
		if lim := o.remaining(); len(batch) > lim {
			batch, owner = batch[:lim], owner[:lim]
		}
		evals, err := o.evalBatch(ctx, batch)
		if err != nil {
			return Candidate{}, err
		}
		spent += len(batch)
		for i, e := range evals {
			a := &arms[owner[i]]
			if e.Feasible && (!a.feasible || e.Cost < a.score) {
				a.feasible, a.score, a.cand = true, e.Cost, e.Cand
			}
		}
		// Keep the better half, by (feasible, score); insertion order breaks
		// ties so the cut is deterministic.
		next := make([]halvingArm, 0, (len(arms)+1)/2)
		for range (len(arms) + 1) / 2 {
			bi := -1
			for i := range arms {
				if bi < 0 || armLess(&arms[i], &arms[bi]) {
					bi = i
				}
			}
			next = append(next, arms[bi])
			arms = append(arms[:bi], arms[bi+1:]...)
		}
		arms = next
	}
	if o.res.Best != nil {
		return o.res.Best.Cand, nil
	}
	return arms[0].cand, nil
}

// armLess orders arms best-first: feasible before not, then lower score.
func armLess(a, b *halvingArm) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	return a.feasible && a.score < b.score
}

// seedArms builds the deterministic arm population: every strategy at its
// canonical knob (empty plan), plus plan-only arms for the canonical
// single-fault shapes — crash one early sender, sever one sender's links.
// The population always includes the constructions the paper's proofs use
// (split-brain, starve), so tiny budgets already visit them; that is what
// lets the strawman regression find its violation within a handful of
// evaluations.
func (o *optimizer) seedArms() []halvingArm {
	n, t := o.cfg.N, o.cfg.T
	arms := make([]halvingArm, 0, 16)
	for s := StratSilent; s < numStrategies; s++ {
		arms = append(arms, halvingArm{cand: Candidate{Strategy: s, Param: defaultParam(s, n, t)}})
	}
	for p := 1; p < n && p <= 3; p++ {
		arms = append(arms,
			halvingArm{cand: Candidate{Strategy: StratNone, Spec: crashSpec(p)}},
			halvingArm{cand: Candidate{Strategy: StratNone, Spec: dropSpec(p)}},
		)
	}
	return arms
}

func crashSpec(p int) faultnet.Spec { return mustSpec(fmt.Sprintf("crash=%d@1", p)) }
func dropSpec(p int) faultnet.Spec  { return mustSpec(fmt.Sprintf("drop=%d->*@*", p)) }

// mustSpec parses a literal spec; the literals above are valid by
// construction.
func mustSpec(s string) faultnet.Spec {
	spec, err := faultnet.ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// anneal walks the neighborhood graph from the halving survivor: batches of
// fixed width (independent of the pool size, for determinism) of mutations
// of the current point, greedy acceptance of improvements, Metropolis
// acceptance of regressions under a geometric temperature schedule, and a
// restart to the incumbent (alternating with a fresh random strategy) when
// the walk cools out or stalls.
func (o *optimizer) anneal(ctx context.Context, start Candidate) error {
	const (
		width    = 4
		tempInit = 0.35
		cooling  = 0.92
		tempMin  = 0.02
		maxStall = 6
	)
	n, t := o.cfg.N, o.cfg.T
	cur, curCost := start, math.MaxInt
	if o.res.Best != nil {
		cur, curCost = o.res.Best.Cand, o.res.Best.Cost
	}
	temp, stall, restarts := tempInit, 0, 0
	for o.remaining() > 0 {
		w := min(width, o.remaining())
		batch := make([]Candidate, w)
		for i := range batch {
			batch[i] = cur.mutate(o.rng, n, t, o.phases)
		}
		evals, err := o.evalBatch(ctx, batch)
		if err != nil {
			return err
		}
		pick := -1
		for i, e := range evals {
			if e.Feasible && (pick < 0 || e.Cost < evals[pick].Cost) {
				pick = i
			}
		}
		switch {
		case pick < 0:
			stall++
		case evals[pick].Cost <= curCost:
			if evals[pick].Cost < curCost {
				stall = 0
			}
			cur, curCost = evals[pick].Cand, evals[pick].Cost
		default:
			stall++
			rel := float64(evals[pick].Cost-curCost) / float64(max(1, curCost))
			if o.rng.Float64() < math.Exp(-rel/temp) {
				cur, curCost = evals[pick].Cand, evals[pick].Cost
			}
		}
		temp *= cooling
		if temp < tempMin || stall > maxStall {
			restarts++
			temp, stall = tempInit, 0
			if restarts%2 == 1 && o.res.Best != nil {
				cur, curCost = o.res.Best.Cand, o.res.Best.Cost
			} else {
				s := StrategyID(o.rng.Intn(int(numStrategies)))
				cur = Candidate{Strategy: s, Param: defaultParam(s, n, t), Seed: o.rng.Int63()}
				curCost = math.MaxInt
			}
		}
	}
	return nil
}
