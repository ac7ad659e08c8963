package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/service"
)

// churnChild marks a process as the drill's server child: the parent re-execs
// os.Args[0] with the serving flags as argv and this variable set, and main —
// or the package's TestMain — routes a marked process to churnServe.
const churnChild = "BALOAD_CHURN_SERVE"

// churnServe is the child: the serving process baserve is, in the drill's own
// binary so the parent can SIGKILL it mid-load.
func churnServe() int {
	return cli.ServeMain("baload", os.Args[1:], os.Stdout, os.Stderr)
}

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
	return *sf.CheckpointEvery + *sf.Queue + shards*max(*sf.Batch, *sf.BatchMax, 1) + conns
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

// churnGeneration runs one server generation: fork, wait for the banner,
// print what it replayed as a benchmark-format line (`BenchmarkChurn...`, the
// shape BENCH_008.json archived and TestChurnDrill parses) and gate it
// against the checkpoint budget, load it to the quota, signal it — SIGKILL,
// or SIGTERM for the final generation, which must then exit clean.
func churnGeneration(cfg churnConfig, cycle int, outPath string, stdout *os.File) (banner cli.Started, acked int, err error) {
	outF, err := os.Create(outPath)
	if err != nil {
		return banner, 0, err
	}
	defer func() { _ = outF.Close() }()
	child := exec.Command(os.Args[0], cfg.serveArgs...)
	child.Env = append(os.Environ(), churnChild+"=1")
	child.Stdout = outF
	child.Stderr = outF
	if err := child.Start(); err != nil {
		return banner, 0, err
	}
	defer func() { // no generation outlives its cycle, whichever way it ends
		_ = child.Process.Kill()
		_ = child.Wait()
	}()
	if banner, err = cli.AwaitBanner(outPath, 30*time.Second); err != nil {
		return banner, 0, err
	}
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
	acked, err = churnLoad(banner.Addr, cfg.conns, cfg.mod, cfg.acksPer, func() error {
		return child.Process.Signal(sig)
	})
	waitErr := child.Wait()
	if err != nil {
		return banner, acked, err
	}
	if final && waitErr != nil {
		return banner, acked, fmt.Errorf("final drain failed: %w", waitErr)
	}
	return banner, acked, nil
}

// churnLoad drives closed-loop submissions and fires sig once target acks
// have landed — while the loaders are still mid-flight, so a SIGKILL always
// finds admitted-but-undelivered work and a SIGTERM drains under live
// traffic. Loader errors after the signal are the expected severed
// connections; an error is returned only when the target was never reached.
func churnLoad(addr string, conns, mod, target int, sig func() error) (int, error) {
	var (
		acked   atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	errs := make(chan error, conns) // a loader sends at most one
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := service.DialClient(addr)
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = cl.Close() }()
			for i := 0; !stopped.Load(); i++ {
				if _, err := cl.Submit(ident.Value((c + i) % mod)); err != nil {
					errs <- err
					return
				}
				acked.Add(1)
			}
		}(c)
	}
	var loadErr error
	deadline := time.After(60 * time.Second)
wait:
	for int(acked.Load()) < target {
		select {
		case loadErr = <-errs: // the server is gone; no point waiting out the deadline
			break wait
		case <-deadline:
			break wait
		case <-time.After(time.Millisecond):
		}
	}
	sigErr := sig()
	stopped.Store(true)
	wg.Wait()
	got := int(acked.Load())
	if sigErr != nil {
		return got, sigErr
	}
	if got < target {
		return got, fmt.Errorf("only %d/%d acknowledged (first loader error: %v)", got, target, loadErr)
	}
	return got, nil
}
