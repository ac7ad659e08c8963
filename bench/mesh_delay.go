package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/sig"
	"byzex/internal/transport"
)

// mesh-delay: closed loop, 2 goroutines calling Service.SubmitWait; alg1 n=7
// t=3 hmac over service.NewWarmTCP with a stated 2 ms one-way link delay, 2
// shards, and the in-budget fault plan crash=1@2 on every instance. The only
// workload where transport (mesh, frame path, phase barrier) and wire do the
// work; wall time is phases x delay plus a remainder, and the remainder is
// what the per-layer run names. Delay-bound, so it runs at min(2, nproc).
type meshDelay struct {
	opt    options
	shards int
	seams  *seams // nil unless traced
	rec    *recorder
	loop   *closedLoop

	tmpl core.Config
	svc  *service.Service
}

const (
	meshN         = 7
	meshT         = 3
	meshLinkDelay = 2 * time.Millisecond
	meshFaults    = "crash=1@2"
	meshCallers   = 2
)

func (m *meshDelay) roundOps() int { return m.opt.pick(100, 10) }

// start is one cold start: template, keys, fault plan, service, and a
// warm-up whose first instance on each shard dials that shard's mesh.
func (m *meshDelay) start() error {
	tmpl, warn, err := cli.Template{Protocol: "alg1", Scheme: "hmac", N: meshN, T: meshT, Faults: meshFaults, Seed: m.opt.seed}.Resolve()
	if err != nil {
		return err
	}
	if warn != "" {
		return fmt.Errorf("fault plan is over budget: %s", warn)
	}
	m.tmpl = tmpl
	var sub service.Substrate = service.NewWarmTCP(meshN, transport.Net{LinkDelay: meshLinkDelay})
	if m.seams != nil {
		sub = tracedSubstrate{inner: sub, seams: m.seams, baseSeed: tmpl.Seed}
	}
	if m.svc, err = service.New(context.Background(), service.Config{Template: tmpl, Substrate: sub, Shards: m.shards, BatchSize: 1}); err != nil {
		return err
	}
	m.loop = newClosedLoop(meshCallers, m.opt.seed)
	warm := newResult(wlMeshDelay, 0)
	m.loop.round(m.opt.pick(40, 4), warm, m.submit)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d failed: %v", warm.failed, warm.problems)
	}
	return nil
}

func (m *meshDelay) stop() {
	if m.svc != nil {
		m.svc.Close() // closes each shard's mesh
		m.svc = nil
	}
}

func (m *meshDelay) submit(_ int, v ident.Value) (observed, time.Duration, error) {
	t0 := time.Now()
	res, err := m.svc.SubmitWait(context.Background(), v)
	t1 := time.Now()
	if err != nil {
		return observed{}, 0, err
	}
	if !res.Committed || res.Decided != v {
		return observed{}, 0, fmt.Errorf("value %v: committed=%v decided=%v", v, res.Committed, res.Decided)
	}
	if m.seams.recording() {
		id := res.Instance.ID
		root := m.rec.add(id, 0, "client.submit", t0, t1)
		svcSpan := m.rec.add(id, root, "service.latency", t1.Add(-res.Latency), t1)
		m.seams.take(id).emit(m.rec, id, svcSpan)
	}
	return observedResult(res), t1.Sub(t0), nil
}

func runMeshDelay(ctx context.Context, opt options) (*result, error) {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	res := newResult(wlMeshDelay, procs)
	m := &meshDelay{opt: opt, shards: 2}
	if opt.trace {
		return m.traced(ctx, res)
	}
	err := runEndToEnd(opt, res, m.start, m.stop, func() {
		window, minRounds := opt.window(1, 10)
		before, m0 := m.svc.Stats(), readMem()
		rounds := runRounds(window, minRounds, func() round { return m.loop.round(m.roundOps(), res, m.submit) })
		after, m1 := m.svc.Stats(), readMem()
		res.setTimings(summarize(rounds))
		res.setCosts(before, after, m0, m1)
		m.loop.sample.recheck(ctx, m.tmpl, res)
	})
	return res, err
}

// traced is the per-layer run: the served path with spans, a one-shard
// window for the overlap two shards buy, then direct timed calls into
// transport and the signed-value codec.
func (m *meshDelay) traced(ctx context.Context, res *result) (*result, error) {
	m.seams, m.rec = newSeams(), newRecorder(spanLimit)
	if err := m.start(); err != nil {
		return nil, err
	}
	m.loop.keepLat = true
	tw := newTracedWindows(m.opt, res, func() { m.seams.on.Store(true) })
	before := m.svc.Stats()
	two := tw.run(10, tw.closed(func() round { return m.loop.round(m.roundOps(), res, m.submit) }))
	after := m.svc.Stats()
	m.seams.on.Store(false)
	m.loop.sample.recheck(ctx, m.tmpl, res)
	m.stop()

	layers := m.rec.byName()
	res.values["service.shard_run_us"] = us(layers["shard.run"].durP50)
	res.values["service.pipeline_wait_us"] = us(layers["service.latency"].selfP50)
	res.values["service.shard_imbalance"] = shardImbalance(before, after)
	res.shadow["client.submit.p50_us"] = us(layers["client.submit"].durP50)
	res.shadow["service.latency.p50_us"] = us(layers["service.latency"].durP50)

	one := &meshDelay{opt: m.opt, shards: 1}
	if err := one.start(); err != nil {
		return nil, err
	}
	window, minRounds := m.opt.window(1.0/6, 4)
	single := summarize(runRounds(window, minRounds, func() round { return one.loop.round(one.roundOps(), res, one.submit) }))
	one.stop()
	if single.valuesPerS.best > 0 {
		res.values["service.shard_speedup_2"] = two.valuesPerS.best / single.valuesPerS.best
	}

	if err := m.transportProbes(ctx, res); err != nil {
		return nil, err
	}
	codecProbes(res)
	return res, tw.finish(m.rec)
}

// transportProbes times direct calls into transport with the workload's own
// template: mesh dial, a warm instance with and without the link delay, and
// a cold (dial-per-instance) one.
func (m *meshDelay) transportProbes(ctx context.Context, res *result) error {
	cfg := m.tmpl
	cfg.Value = ident.V1
	runs := m.opt.pick(40, 3)

	var dial []time.Duration
	var mesh *transport.Mesh
	for i := 0; i < m.opt.pick(3, 1); i++ {
		if mesh != nil {
			mesh.Close()
		}
		t0 := time.Now()
		var err error
		if mesh, err = transport.NewMesh(ctx, meshN, transport.Net{}); err != nil {
			return err
		}
		dial = append(dial, time.Since(t0))
	}
	defer func() { mesh.Close() }()
	best, _, _ := durQuantiles(dial)
	res.values["transport.mesh_dial_ms"] = ms(best)

	timeRuns := func(n int, run func(core.Config) (*transport.Result, error)) (time.Duration, *transport.Result, error) {
		var took []time.Duration
		var last *transport.Result
		for i := 0; i < n; i++ {
			c := cfg
			c.Seed = cfg.Seed + int64(i)
			t0 := time.Now()
			out, err := run(c)
			if err != nil {
				return 0, nil, err
			}
			took = append(took, time.Since(t0))
			if _, err := out.Decision(c.Transmitter, c.Value); err != nil {
				return 0, nil, err
			}
			last = out
		}
		p50, _, _ := durQuantiles(took)
		return p50, last, nil
	}
	warm := func(mesh *transport.Mesh) func(core.Config) (*transport.Result, error) {
		return func(c core.Config) (*transport.Result, error) { return mesh.Run(ctx, c) }
	}

	nodelay, out, err := timeRuns(runs, warm(mesh))
	if err != nil {
		return err
	}
	res.values["transport.instance_ms_nodelay"] = ms(nodelay)
	res.values["transport.bytes_per_instance"] = float64(out.Report.BytesCorrect)

	delayed, err := transport.NewMesh(ctx, meshN, transport.Net{LinkDelay: meshLinkDelay})
	if err != nil {
		return err
	}
	defer delayed.Close()
	withDelay, _, err := timeRuns(runs, warm(delayed))
	if err != nil {
		return err
	}
	phases := cfg.Protocol.Phases(meshN, meshT)
	res.values["transport.instance_ms_delay"] = ms(withDelay)
	res.values["transport.barrier_remainder_ms"] = ms(withDelay) - float64(phases)*ms(meshLinkDelay)
	res.shadow["transport.phases"] = float64(phases)

	cold, _, err := timeRuns(m.opt.pick(10, 2), func(c core.Config) (*transport.Result, error) {
		return transport.RunCluster(ctx, c, transport.Net{})
	})
	if err != nil {
		return err
	}
	res.values["transport.cold_instance_ms"] = ms(cold)
	return nil
}

// codecProbes times the signed-value codec on a chain of length 4, the
// longest alg1 n=7 sends.
func codecProbes(res *result) {
	scheme := sig.NewHMAC(meshN, 1)
	signer := func(i int) sig.Signer {
		s, err := scheme.Signer(ident.ProcID(i))
		if err != nil {
			panic(err) // ids below the scheme's n always have a signer
		}
		return s
	}
	sv := sig.NewSignedValue(signer(0), ident.V1)
	for i := 1; i < 4; i++ {
		sv = sv.CoSign(signer(i))
	}
	const n = 20000
	var b []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		b = sv.Marshal()
	}
	res.values["wire.signedvalue_marshal_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := sig.UnmarshalSignedValue(b); err != nil {
			panic(err) // decoding what Marshal just produced
		}
	}
	res.values["wire.signedvalue_unmarshal_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	res.shadow["wire.signedvalue_bytes"] = float64(len(b))
}
