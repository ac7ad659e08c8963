package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/service"
)

// wire-small: closed loop, 2 service.Client connections over loopback into
// service.Serve; alg1 n=5 t=2 hmac on the in-memory engine, 1 shard, batch 1,
// no journal. The instance costs a few microseconds, so the line protocol and
// the admission -> batcher -> shard -> ordered-delivery pipeline are the work.
// CPU-bound, so it runs at GOMAXPROCS=1.
type wireSmall struct {
	opt   options
	seams *seams // nil unless traced
	rec   *recorder
	loop  *closedLoop

	tmpl    core.Config
	cancel  context.CancelFunc
	svc     *service.Service
	served  chan error
	clients []*service.Client
}

const wireSmallConns = 2

// roundOps is small on purpose: a 1000-ack round lasts about 22 ms, so a
// window holds hundreds of them and a few land in uncontended slices.
func (w *wireSmall) roundOps() int { return w.opt.pick(1000, 200) }

// start is one cold start: template, keys, service, listener, dials, and a
// fixed-count warm-up.
func (w *wireSmall) start() error {
	tmpl, _, err := cli.Template{Protocol: "alg1", Scheme: "hmac", N: 5, T: 2, Seed: w.opt.seed}.Resolve()
	if err != nil {
		return err
	}
	w.tmpl = tmpl
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	cfg := service.Config{Template: tmpl, Shards: 1, BatchSize: 1, QueueDepth: 64}
	if w.seams != nil {
		cfg.Substrate = tracedSubstrate{inner: service.SharedRun(service.RunSim), seams: w.seams, baseSeed: tmpl.Seed}
	}
	if w.svc, err = service.New(ctx, cfg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.served = make(chan error, 1)
	go func(svc *service.Service, served chan<- error) { served <- service.Serve(ctx, ln, svc) }(w.svc, w.served)
	w.clients = w.clients[:0]
	for c := 0; c < wireSmallConns; c++ {
		cl, err := service.DialClient(ln.Addr().String())
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cl)
	}
	w.loop = newClosedLoop(wireSmallConns, w.opt.seed)
	warm := newResult(wlWireSmall, 1)
	w.loop.round(w.opt.pick(20000, 200), warm, w.overWire)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d failed: %v", warm.failed, warm.problems)
	}
	return nil
}

func (w *wireSmall) stop() {
	for _, cl := range w.clients {
		_ = cl.Close()
	}
	if w.cancel != nil {
		w.cancel()
		<-w.served
		w.svc.Close()
		w.cancel = nil
	}
}

// overWire is the measured path: one line out, one line back.
func (w *wireSmall) overWire(c int, v ident.Value) (observed, time.Duration, error) {
	t0 := time.Now()
	rep, err := w.clients[c].Submit(v)
	t1 := time.Now()
	if err != nil {
		return observed{}, 0, err
	}
	if !rep.Committed || rep.Decided != v || rep.Packed != v {
		return observed{}, 0, fmt.Errorf("value %v: committed=%v decided=%v packed=%v", v, rep.Committed, rep.Decided, rep.Packed)
	}
	if w.seams.recording() {
		root := w.rec.add(rep.InstanceID, 0, "client.submit", t0, t1)
		w.seams.take(rep.InstanceID).emit(w.rec, rep.InstanceID, root)
	}
	return observed{id: rep.InstanceID, packed: rep.Packed, decided: rep.Decided}, t1.Sub(t0), nil
}

// inProcess is the same submission without the wire; its latency is the
// server-side Result.Latency, which the traced run subtracts from the
// client's to get the line protocol's share.
func (w *wireSmall) inProcess(_ int, v ident.Value) (observed, time.Duration, error) {
	res, err := w.svc.SubmitWait(context.Background(), v)
	t1 := time.Now()
	if err != nil {
		return observed{}, 0, err
	}
	if !res.Committed || res.Decided != v {
		return observed{}, 0, fmt.Errorf("value %v: committed=%v decided=%v", v, res.Committed, res.Decided)
	}
	id := res.Instance.ID
	if w.seams.recording() {
		root := w.rec.add(id, 0, "service.latency", t1.Add(-res.Latency), t1)
		w.seams.take(id).emit(w.rec, id, root)
	}
	return observedResult(res), res.Latency, nil
}

func runWireSmall(ctx context.Context, opt options) (*result, error) {
	runtime.GOMAXPROCS(1)
	res := newResult(wlWireSmall, 1)
	w := &wireSmall{opt: opt}
	if opt.trace {
		return w.traced(ctx, res)
	}
	err := runEndToEnd(opt, res, w.start, w.stop, func() {
		window, minRounds := opt.window(1, 30)
		before, m0 := w.svc.Stats(), readMem()
		rounds := runRounds(window, minRounds, func() round { return w.loop.round(w.roundOps(), res, w.overWire) })
		after, m1 := w.svc.Stats(), readMem()
		res.setTimings(summarize(rounds))
		res.setCosts(before, after, m0, m1)
		w.loop.sample.recheck(ctx, w.tmpl, res)
	})
	return res, err
}

// traced is the per-layer run: an untraced window for the overhead base, the
// same path with spans on, then the same submissions in process so the line
// protocol's share is the difference of the two medians.
func (w *wireSmall) traced(ctx context.Context, res *result) (*result, error) {
	w.seams, w.rec = newSeams(), newRecorder(spanLimit)
	if err := w.start(); err != nil {
		return nil, err
	}
	defer w.stop()
	w.loop.keepLat = true
	tw := newTracedWindows(w.opt, res, func() { w.seams.on.Store(true) })
	wire := tw.run(30, tw.closed(func() round { return w.loop.round(w.roundOps(), res, w.overWire) }))

	window, minRounds := w.opt.window(1.0/6, 10)
	inproc := summarize(runRounds(window, minRounds, func() round { return w.loop.round(w.roundOps(), res, w.inProcess) }))
	w.seams.on.Store(false)

	layers := w.rec.byName()
	res.values["service.line_overhead_us"] = 1000 * (wire.p50ms.best - inproc.p50ms.best)
	res.values["service.shard_run_us"] = us(layers["shard.run"].durP50)
	res.values["service.pipeline_wait_us"] = us(layers["service.latency"].selfP50)
	res.shadow["client.submit.p50_us"] = us(layers["client.submit"].durP50)
	res.shadow["client.submit.self_p50_us"] = us(layers["client.submit"].selfP50)
	res.shadow["service.latency.p50_us"] = us(layers["service.latency"].durP50)
	w.loop.sample.recheck(ctx, w.tmpl, res)
	return res, tw.finish(w.rec)
}
