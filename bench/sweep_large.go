package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"byzex/internal/adversary"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/runner"
	"byzex/internal/service"
	"byzex/internal/sig"
	"byzex/internal/trace"
)

// sweep-large: offline, one goroutine running core.RunAndCheck (core.Run for
// the alg4 exchange cells) serially over the paper grid, the 16 E1-E5 cells
// BENCH_001.json baselines, value 1, hmac. sim, sig chains and the five
// algorithms do all the work and service/transport/journal none; alg5 n=1024
// is most of a pass and owns peak_rss_mb. A round is one pass over the grid;
// a "value" is one decided run, and the latency quantiles fall on fixed cells
// (p50 on an alg3 cell, p90 on an alg5 n=256 cell). alg4 m=16 is left out: it
// alone would be two-thirds of a pass. CPU-bound, so GOMAXPROCS=1.
type sweepLarge struct {
	opt   options
	rec   *recorder
	spans bool
	cells []gridCell

	// window sums the paper's units since the window opened, in the shape
	// the serving workloads get from the service, so one cost writer serves
	// all four.
	window       service.Stats
	hits, misses int // signature-cache counters over the last pass
}

// largestCell names each algorithm's largest grid cell, the one whose counts
// the per-layer run reports against the paper's bounds.
var largestCell = map[string]string{
	"alg1": "alg1-t16", "alg2": "alg2-t16", "alg3": "alg3-s32", "alg4": "alg4-m8", "alg5": "alg5-n1024-t3",
}

// cell returns the named cell; at smoke size, where each algorithm keeps only
// its smallest cell, it returns that one.
func (s *sweepLarge) cell(name string) *gridCell {
	var sameAlg *gridCell
	for i := range s.cells {
		c := &s.cells[i]
		if c.name == name {
			return c
		}
		if strings.HasPrefix(name, c.alg+"-") {
			sameAlg = c
		}
	}
	return sameAlg
}

// gridCell is one cell: its run description and the closed-form bounds its
// counts must respect.
type gridCell struct {
	name string
	alg  string
	cfg  core.Config
	// exchange marks the alg4 cells: an information exchange with silent
	// faults, run with core.Run; it has no agreement to check and no
	// agreement lower bound.
	exchange bool
	msgUpper int
	phases   int // the paper's phase count, 0 where the schedule is implementation-defined
}

func (s *sweepLarge) buildCells() error {
	type shape struct {
		name, alg string
		n, t, s   int
		upper     int
		phases    int
	}
	var shapes []shape
	for _, t := range []int{4, 8, 16} {
		shapes = append(shapes, shape{fmt.Sprintf("alg1-t%d", t), "alg1", 2*t + 1, t, 0, core.Alg1MsgUpperBound(t), core.Alg1Phases(t)})
	}
	for _, t := range []int{4, 8, 16} {
		shapes = append(shapes, shape{fmt.Sprintf("alg2-t%d", t), "alg2", 2*t + 1, t, 0, core.Alg2MsgUpperBound(t), core.Alg2Phases(t)})
	}
	for _, sz := range []int{2, 8, 16, 32} {
		shapes = append(shapes, shape{fmt.Sprintf("alg3-s%d", sz), "alg3", 256, 4, sz, core.Alg3MsgUpperBound(256, 4, sz), core.Alg3Phases(4, sz)})
	}
	for _, m := range []int{4, 8} {
		shapes = append(shapes, shape{fmt.Sprintf("alg4-m%d", m), "alg4", m * m, m / 2, 0, core.Alg4MsgUpperBound(m), 0})
	}
	for _, c := range []struct{ n, t int }{{64, 3}, {256, 3}, {1024, 3}, {256, 4}} {
		shapes = append(shapes, shape{fmt.Sprintf("alg5-n%d-t%d", c.n, c.t), "alg5", c.n, c.t, c.t, core.Alg5MsgUpperBound(c.n, c.t, c.t), core.Alg5Phases(c.t, c.t)})
	}
	if s.opt.small {
		// Smoke size: the smallest cell of each algorithm, under the full
		// grid's names so the per-layer name set stays whole.
		shapes = []shape{shapes[0], shapes[3], shapes[6], shapes[10], shapes[12]}
	}
	s.cells = s.cells[:0]
	for _, sh := range shapes {
		p := cli.Params{N: sh.n, T: sh.t, S: sh.s, Seed: s.opt.seed}
		proto, err := cli.Protocol(sh.alg, p)
		if err != nil {
			return err
		}
		scheme, err := cli.Scheme("hmac", p)
		if err != nil {
			return err
		}
		cell := gridCell{
			name: sh.name, alg: sh.alg, msgUpper: sh.upper, phases: sh.phases,
			cfg: core.Config{Protocol: proto, N: sh.n, T: sh.t, Value: ident.V1, Scheme: scheme, Seed: s.opt.seed},
		}
		if sh.alg == "alg4" {
			cell.exchange = true
			cell.cfg.Adversary = adversary.Silent{}
		}
		s.cells = append(s.cells, cell)
	}
	return nil
}

// start is one cold start: resolve every cell (protocol, keys) and run the
// warm-up passes.
func (s *sweepLarge) start() error {
	if err := s.buildCells(); err != nil {
		return err
	}
	warm := newResult(wlSweepLarge, 1)
	for i := 0; i < s.opt.pick(2, 1); i++ {
		s.pass(context.Background(), warm)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d failed: %v", warm.failed, warm.problems)
	}
	return nil
}

func (s *sweepLarge) stop() { s.cells = nil }

// runCell runs one cell and checks its output: agreement and validity (for
// the agreement cells), the paper's message upper bound, its phase count, and
// the Theorem 1 / Theorem 2 lower bounds.
func (s *sweepLarge) runCell(ctx context.Context, c *gridCell) (*core.Result, error) {
	var (
		out *core.Result
		err error
	)
	if c.exchange {
		out, err = core.Run(ctx, c.cfg)
	} else {
		var decided ident.Value
		out, decided, err = core.RunAndCheck(ctx, c.cfg)
		if err == nil && decided != c.cfg.Value {
			err = fmt.Errorf("decided %v, transmitter sent %v", decided, c.cfg.Value)
		}
	}
	if err != nil {
		return nil, err
	}
	rep := out.Sim.Report
	switch {
	case rep.MessagesCorrect > c.msgUpper:
		return nil, fmt.Errorf("%d messages above the paper's upper bound %d", rep.MessagesCorrect, c.msgUpper)
	case c.phases > 0 && out.Phases != c.phases:
		return nil, fmt.Errorf("%d phases, the paper gives %d", out.Phases, c.phases)
	case !c.exchange && rep.SignaturesCorrect < core.SigLowerBound(c.cfg.N, c.cfg.T):
		return nil, fmt.Errorf("%d signatures below the Theorem 1 bound %d", rep.SignaturesCorrect, core.SigLowerBound(c.cfg.N, c.cfg.T))
	case !c.exchange && rep.MessagesCorrect < core.MsgLowerBound(c.cfg.N, c.cfg.T):
		return nil, fmt.Errorf("%d messages below the Theorem 2 bound %d", rep.MessagesCorrect, core.MsgLowerBound(c.cfg.N, c.cfg.T))
	}
	return out, nil
}

// pass runs the grid once, serially, and returns the round's reading.
func (s *sweepLarge) pass(ctx context.Context, res *result) round {
	lat := make([]time.Duration, 0, len(s.cells))
	s.hits, s.misses = 0, 0
	cpu0, t0 := cpuTime(), time.Now()
	for i := range s.cells {
		c := &s.cells[i]
		c0 := time.Now()
		out, err := s.runCell(ctx, c)
		c1 := time.Now()
		res.attempted++
		if err != nil {
			res.fail(1, "cell %s: %v", c.name, err)
			continue
		}
		lat = append(lat, c1.Sub(c0))
		if s.spans {
			s.rec.add(uint64(i), 0, "core.run."+c.name, c0, c1)
		}
		rep := out.Sim.Report
		s.window.ValuesDecided++
		s.window.MessagesCorrect += uint64(rep.MessagesCorrect)
		s.window.SignaturesCorrect += uint64(rep.SignaturesCorrect)
		s.window.BytesCorrect += uint64(rep.BytesCorrect)
		s.hits += rep.SigCacheHits
		s.misses += rep.SigCacheMisses
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	kept := append([]time.Duration(nil), lat...)
	p50, p90, _ := durQuantiles(lat)
	return round{values: len(lat), wall: wall, cpu: cpu, p50: p50, p90: p90, lat: kept}
}

func runSweepLarge(ctx context.Context, opt options) (*result, error) {
	runtime.GOMAXPROCS(1)
	res := newResult(wlSweepLarge, 1)
	s := &sweepLarge{opt: opt}
	if opt.trace {
		return s.traced(ctx, res)
	}
	err := runEndToEnd(opt, res, s.start, s.stop, func() {
		window, minRounds := opt.window(1, 30)
		s.window = service.Stats{}
		m0 := readMem()
		rounds := runRounds(window, minRounds, func() round { return s.pass(ctx, res) })
		res.setTimings(summarize(rounds))
		res.setCosts(service.Stats{}, s.window, m0, readMem())
	})
	return res, err
}

// traced is the per-layer run: the same passes with a span around every
// core.Run call, then direct timed calls into sig, core, sim, runner,
// faultnet and trace.
func (s *sweepLarge) traced(ctx context.Context, res *result) (*result, error) {
	s.rec = newRecorder(spanLimit)
	if err := s.start(); err != nil {
		return nil, err
	}
	tw := newTracedWindows(s.opt, res, func() { s.spans = true })
	tw.run(10, tw.closed(func() round { return s.pass(ctx, res) }))
	s.spans = false
	if total := s.hits + s.misses; total > 0 {
		res.values["sig.cache_hit_ratio"] = float64(s.hits) / float64(total)
	}

	// Per-cell run time: the best-decile pass, like every other timing.
	layers := s.rec.byName()
	for _, c := range s.cells {
		res.values["core.run_ms."+c.name] = ms(layers["core.run."+c.name].durP10)
	}
	for alg, name := range largestCell {
		c := s.cell(name)
		out, err := s.runCell(ctx, c)
		if err != nil {
			res.fail(1, "cell %s: %v", c.name, err)
			continue
		}
		res.values["core.msgs."+alg] = float64(out.Sim.Report.MessagesCorrect)
		res.values["core.sigs."+alg] = float64(out.Sim.Report.SignaturesCorrect)
		res.values["core.phases."+alg] = float64(out.Phases)
	}
	if err := s.layerProbes(ctx, res); err != nil {
		return nil, err
	}
	return res, tw.finish(s.rec)
}

// layerProbes are the direct timed calls of the sweep's layers.
func (s *sweepLarge) layerProbes(ctx context.Context, res *result) error {
	// core / sim: set-up and allocation of the largest cell.
	big := s.cell("alg5-n1024-t3")
	var setups []time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := core.NewSetup(big.cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
	}
	best, _, _ := durQuantiles(setups)
	res.values["core.setup_us.n1024"] = us(best)
	m0 := readMem()
	if _, err := s.runCell(ctx, big); err != nil {
		return err
	}
	m1 := readMem()
	res.values["sim.allocs_per_run.alg5-n1024"] = float64(m1.mallocs - m0.mallocs)
	res.values["sim.alloc_kb_per_run.alg5-n1024"] = float64(m1.totalAlloc-m0.totalAlloc) / 1024
	res.shadow["core.setup_cell_n"] = float64(big.cfg.N)

	if err := sigProbes(res); err != nil {
		return err
	}

	// runner: one pass through runner.Map at 2 processors, 1 worker against
	// 2. Information only; on a 1-processor box it reads about 1.
	prev := runtime.GOMAXPROCS(2)
	mapPass := func(workers int) (time.Duration, error) {
		var took []time.Duration
		for i := 0; i < s.opt.pick(3, 1); i++ {
			t0 := time.Now()
			_, err := runner.Map(ctx, runner.New(workers), len(s.cells), func(ctx context.Context, i int) (int, error) {
				_, err := s.runCell(ctx, &s.cells[i])
				return 0, err
			})
			if err != nil {
				return 0, err
			}
			took = append(took, time.Since(t0))
		}
		b, _, _ := durQuantiles(took)
		return b, nil
	}
	one, err := mapPass(1)
	if err == nil {
		var two time.Duration
		if two, err = mapPass(2); err == nil && two > 0 {
			res.values["runner.map_speedup_2w"] = float64(one) / float64(two)
		}
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}

	// faultnet: alg1 t=8 with a compiled plan whose one rule never fires
	// (its window is past the last phase) against no plan.
	inert, err := cli.FaultPlan("drop=2->3@90", s.opt.seed)
	if err != nil {
		return err
	}
	ratio, err := pairedRatio(ctx, s.cell("alg1-t8").cfg, s.opt.pick(40, 2), func(c *core.Config) { c.Faults = inert })
	if err != nil {
		return err
	}
	res.values["faultnet.inert_plan_ratio"] = ratio

	// trace: alg5 n=256 with a ring sink against no sink.
	ratio, err = pairedRatio(ctx, s.cell("alg5-n256-t3").cfg, s.opt.pick(6, 1), func(c *core.Config) { c.Trace = trace.NewRing(1 << 16) })
	if err != nil {
		return err
	}
	res.values["trace.ring_overhead_ratio"] = ratio
	return nil
}

// pairedRatio runs base and a modified copy alternately n times each and
// returns median(modified) / median(base).
func pairedRatio(ctx context.Context, base core.Config, n int, modify func(*core.Config)) (float64, error) {
	var plain, mod []time.Duration
	for i := 0; i < n; i++ {
		for _, with := range []bool{false, true} {
			c := base
			if with {
				modify(&c)
			}
			t0 := time.Now()
			if _, err := core.Run(ctx, c); err != nil {
				return 0, err
			}
			if with {
				mod = append(mod, time.Since(t0))
			} else {
				plain = append(plain, time.Since(t0))
			}
		}
	}
	p, _, _ := durQuantiles(plain)
	m, _, _ := durQuantiles(mod)
	if p <= 0 {
		return 0, nil
	}
	return float64(m) / float64(p), nil
}

// sigProbes times the signature layer directly: one signature per scheme,
// and a 16-link chain verified cold and through the verified-prefix cache.
func sigProbes(res *result) error {
	const n = 17
	hm := sig.NewHMAC(n, 1)
	ed, err := sig.NewEd25519(n, nil)
	if err != nil {
		return err
	}
	msg := make([]byte, 64)
	for name, sc := range map[string]sig.Scheme{"hmac": hm, "ed25519": ed} {
		signer, err := sc.Signer(0)
		if err != nil {
			return err
		}
		iters := 2000
		if name == "hmac" {
			iters = 20000
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			msg[0] = byte(i)
			calibSink = signer.Sign(msg)
		}
		res.values["sig.sign_ns."+name] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	body := sig.ValueBody(ident.V1)
	var chain sig.Chain
	for i := 0; i < 16; i++ {
		signer, err := hm.Signer(ident.ProcID(i))
		if err != nil {
			return err
		}
		chain = sig.Append(signer, body, chain)
	}
	const verifies = 500
	t0 := time.Now()
	for i := 0; i < verifies; i++ {
		if err := chain.Verify(hm, body); err != nil {
			return err
		}
	}
	res.values["sig.chain_verify_us.L16"] = us(time.Since(t0)) / verifies
	cached := sig.NewCachedVerifier(hm)
	if err := chain.Verify(cached, body); err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < verifies; i++ {
		if err := chain.Verify(cached, body); err != nil {
			return err
		}
	}
	res.values["sig.chain_verify_cached_us.L16"] = us(time.Since(t0)) / verifies
	return nil
}
