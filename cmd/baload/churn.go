package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/service"
)

// churnConfig is everything the parent loop needs from the flag surface.
type churnConfig struct {
	cycles    int      // kill/restart cycles (child generations = cycles+1)
	acksPer   int      // acknowledged submissions per generation before the signal
	conns     int      // closed-loop connection fan-out
	mod       int      // value modulus
	bound     int      // max tolerated replay count per restart; <=0 = no gate
	serveArgs []string // child argv: every serving flag the user set, on a port of its own
}

// churnBound derives the replay gate from the serving flags: a restart may
// replay at most one checkpoint budget plus everything that can legally be
// in flight past the delivered watermark (queued batches, per-shard
// executions, and one outstanding submission per loader connection).
func churnBound(sf *cli.ServeFlags, conns int) int {
	if *sf.CheckpointEvery <= 0 {
		return 0
	}
	shards := *sf.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return *sf.CheckpointEvery + *sf.Queue + shards*max(*sf.Batch, 1) + conns
}

// runChurn is the parent loop of the kill/restart drill: cycles+1 server
// generations over one journal directory, each loaded to its quota and then
// SIGKILLed mid-load — the last one SIGTERMed, so the drill leaves a
// checkpointed journal. A generation that fails the drill is reported with
// everything it printed.
func runChurn(cfg churnConfig, stdout, stderr *os.File) int {
	dir, err := os.MkdirTemp("", "baload-churn-*")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer func() { _ = os.RemoveAll(dir) }()

	maxReplayed := 0
	for cycle := 0; cycle <= cfg.cycles; cycle++ {
		outPath := filepath.Join(dir, fmt.Sprintf("gen-%d-out", cycle))
		banner, acked, err := churnGeneration(cfg, cycle, outPath, stdout)
		if err != nil {
			out, _ := os.ReadFile(outPath)
			fmt.Fprintf(stderr, "churn: generation %d: %v\n%s", cycle, err, out)
			return 1
		}
		if cycle > 0 && banner.Replayed > maxReplayed {
			maxReplayed = banner.Replayed
		}
		if cycle == cfg.cycles {
			fmt.Fprintf(stdout, "churn: %d kill/restart cycles, max replayed %d (bound %d), final watermark %d+%d\n",
				cfg.cycles, maxReplayed, cfg.bound, banner.Watermark, acked)
		}
	}
	return 0
}

// churnGeneration runs one server generation: fork, print what it replayed
// as a benchmark-format line (`BenchmarkChurn...`, the shape BENCH_008.json
// archived and TestChurnDrill parses) and gate it against the checkpoint
// budget, load it to the quota, signal it — SIGKILL, or SIGTERM for the
// final generation, which must then exit clean.
func churnGeneration(cfg churnConfig, cycle int, outPath string, stdout *os.File) (banner cli.Started, acked int, err error) {
	outF, err := os.Create(outPath)
	if err != nil {
		return banner, 0, err
	}
	defer func() { _ = outF.Close() }()
	child, banner, err := cli.Fork(cfg.serveArgs, outF)
	if err != nil {
		return banner, 0, err
	}
	defer func() { // no generation outlives its cycle, whichever way it ends
		_ = child.Process.Kill()
		_ = child.Wait()
	}()
	if cycle > 0 {
		rate := 0.0
		if sec := banner.Recovery.Seconds(); sec > 0 {
			rate = float64(banner.Replayed) / sec
		}
		// `name iters value unit...`, like a row of `go test -bench`.
		fmt.Fprintf(stdout, "BenchmarkChurnRecovery/cycle=%d \t1\t%d ns/op\t%d replayed\t%.0f replayed/s\n",
			cycle, banner.Recovery.Nanoseconds(), banner.Replayed, rate)
		if cfg.bound > 0 && banner.Replayed > cfg.bound {
			return banner, 0, fmt.Errorf("FAIL replayed %d admissions, bound %d (watermark %d)",
				banner.Replayed, cfg.bound, banner.Watermark)
		}
	}

	final := cycle == cfg.cycles
	sig := syscall.SIGKILL
	if final {
		sig = syscall.SIGTERM
	}
	if acked, err = churnLoad(banner.Addr, cfg, func() error { return child.Process.Signal(sig) }); err != nil {
		return banner, acked, err
	}
	if err := child.Wait(); final && err != nil {
		return banner, acked, fmt.Errorf("final drain failed: %w", err)
	}
	return banner, acked, nil
}

// churnLoad drives the drill's closed loop and fires sig once cfg.acksPer
// acknowledgements have landed — while the loaders are still mid-flight, so
// a SIGKILL always finds admitted-but-undelivered work and a SIGTERM drains
// under live traffic. The load is stopped just before the signal, so the
// connections the signal severs are not errors; an error is returned when
// the server goes away first or the target is never reached.
func churnLoad(addr string, cfg churnConfig, sig func() error) (int, error) {
	ctx, stop := context.WithTimeout(context.Background(), 60*time.Second)
	defer stop()
	var sigErr error
	load, err := service.RunLoad(ctx, service.LoadConfig{
		Addr:     addr,
		Conns:    cfg.conns,
		ValueFor: func(c, i int) ident.Value { return ident.Value((c + i) % cfg.mod) },
		OnAck: func(acked int) {
			if acked == cfg.acksPer {
				stop()
				sigErr = sig()
			}
		},
	})
	switch {
	case err != nil:
		return load.Submitted, err
	case sigErr != nil:
		return load.Submitted, sigErr
	case load.Submitted < cfg.acksPer:
		return load.Submitted, fmt.Errorf("only %d/%d acknowledged", load.Submitted, cfg.acksPer)
	}
	return load.Submitted, nil
}
