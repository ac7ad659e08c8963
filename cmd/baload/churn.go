package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"byzex/internal/cli"
	"byzex/internal/ident"
	"byzex/internal/service"
)

// churnChildPrefix is prepended to the re-exec argv of the churn child.
// Empty for the real binary (the env marker is enough); the package test
// sets it to the -test.run filter that selects the helper body, so the test
// binary can act as its own server process.
var churnChildPrefix []string

// churnBanner is the child's one-line readiness report. The parent parses
// every number the drill asserts on out of this single line, so a child that
// dies before serving can never be mistaken for a slow one.
var churnBanner = regexp.MustCompile(`churn-serve: watermark=(\d+) replayed=(\d+) recovery=(\S+) listening on (\S+)`)

// runChurnServe is the child body of the churn drill: a journaled server in
// its own process, so the parent can SIGKILL it mid-load. It mirrors
// baserve's serve path (same flag surface via cli.RegisterServeFlags) but
// reports recovery timing in a machine-parseable banner: recovery covers the
// journal scan plus the byte-identical replay of every pending admission —
// the restart-to-listening budget the churn benchmark measures.
func runChurnServe(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("baload-churn-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := cli.RegisterServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tmpl, _, err := sf.Resolve()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	svcCfg, err := sf.ServiceConfig(tmpl)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	recoverStart := time.Now()
	jw, rec, err := sf.OpenJournal(tmpl)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if jw == nil {
		fmt.Fprintln(stderr, "churn serve requires -journal-dir")
		return 2
	}
	svcCfg.Journal = jw
	svcCfg.FirstInstance = rec.FirstInstance()
	svcCfg.BaseStats = rec.BaseStats()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	svc, err := service.New(ctx, svcCfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	replayed, err := rec.Replay(svc, tmpl)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	jw.SetReplayed(uint64(replayed))
	recovery := time.Since(recoverStart)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "churn-serve: watermark=%d replayed=%d recovery=%s listening on %s\n",
		rec.Watermark, replayed, recovery, ln.Addr())

	if err := service.Serve(ctx, ln, svc); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	svc.Close()
	if err := jw.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "churn-serve: drained %s\n", svc.Stats().String())
	return 0
}

// churnConfig is everything the parent loop needs from the flag surface.
type churnConfig struct {
	cycles    int      // kill/restart cycles (child generations = cycles+1)
	acksPer   int      // acknowledged submissions per generation before the signal
	conns     int      // closed-loop connection fan-out
	mod       int      // value modulus
	bound     int      // max tolerated replay count per restart; <=0 = no gate
	serveArgs []string // child flag surface (template + journal + pipeline)
}

// churnBound derives the replay gate from the serving flags: a restart may
// replay at most one checkpoint budget plus everything that can legally be
// in flight past the delivered watermark (queued batches, per-shard
// executions, and one outstanding submission per loader connection).
func churnBound(sf *cli.ServeFlags, shards, conns int) int {
	if *sf.CheckpointEvery <= 0 {
		return 0
	}
	batch := *sf.Batch
	if *sf.BatchMax > batch {
		batch = *sf.BatchMax
	}
	if batch < 1 {
		batch = 1
	}
	return *sf.CheckpointEvery + *sf.Queue + shards*batch + conns
}

// churnConfigFrom rebuilds the child's flag surface from the parsed serving
// flags; the parent-only command flags (-c, -addr, -churn*) stay behind.
func churnConfigFrom(sf *cli.ServeFlags, cycles, acks, conns, mod int) churnConfig {
	shards := *sf.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	serveArgs := []string{
		"-protocol", sf.Protocol, "-adversary", sf.Adversary, "-scheme", sf.Scheme,
		"-n", strconv.Itoa(sf.N), "-t", strconv.Itoa(sf.T), "-s", strconv.Itoa(sf.S),
		"-seed", strconv.FormatInt(sf.Seed, 10),
		"-shards", strconv.Itoa(*sf.Shards), "-queue", strconv.Itoa(*sf.Queue),
		"-batch", strconv.Itoa(*sf.Batch), "-linger", sf.Linger.String(),
		"-journal-dir", *sf.JournalDir, "-fsync", *sf.Fsync,
		"-checkpoint-every", strconv.Itoa(*sf.CheckpointEvery),
		"-checkpoint-interval", sf.CheckpointInterval.String(),
	}
	if sf.Faults != "" {
		serveArgs = append(serveArgs, "-faults", sf.Faults)
	}
	if *sf.Adaptive {
		serveArgs = append(serveArgs, "-adaptive",
			"-batch-min", strconv.Itoa(*sf.BatchMin), "-batch-max", strconv.Itoa(*sf.BatchMax))
	}
	if *sf.Transport != "memory" {
		serveArgs = append(serveArgs, "-transport", *sf.Transport)
		if *sf.LinkDelay > 0 {
			serveArgs = append(serveArgs, "-link-delay", sf.LinkDelay.String())
		}
		if *sf.WireVersion != 0 {
			serveArgs = append(serveArgs, "-wire-version", strconv.Itoa(*sf.WireVersion))
		}
	}
	return churnConfig{
		cycles: cycles, acksPer: acks, conns: conns, mod: mod,
		bound:     churnBound(sf, shards, conns),
		serveArgs: serveArgs,
	}
}

// runChurn is the parent loop of the kill/restart drill: it forks a
// journaled server, loads it over the wire until the cycle's quota of
// acknowledged submissions, SIGKILLs it mid-load, restarts it over the same
// journal directory, and asserts the restart replayed no more than the
// checkpoint budget allows. Recovery time and replay throughput are emitted
// as benchmark-format lines (`BenchmarkChurn...`, the shape BENCH_008.json
// archived and TestChurnDrill parses). The final generation is
// drained cleanly (SIGTERM) so the drill leaves a checkpointed journal.
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
		outF, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		child := exec.Command(os.Args[0], churnChildPrefix...)
		child.Env = append(os.Environ(),
			"BALOAD_CHURN_SERVE=1",
			"BALOAD_CHURN_ARGS="+strings.Join(cfg.serveArgs, "\x1f"),
		)
		child.Stdout = outF
		child.Stderr = outF
		if err := child.Start(); err != nil {
			_ = outF.Close()
			fmt.Fprintln(stderr, err)
			return 1
		}
		banner, err := awaitChurnBanner(outPath, 30*time.Second)
		if err != nil {
			_ = child.Process.Kill()
			_, _ = child.Process.Wait()
			_ = outF.Close()
			fmt.Fprintf(stderr, "churn: generation %d never came up: %v\n", cycle, err)
			return 1
		}
		watermark, _ := strconv.Atoi(banner[1])
		replayed, _ := strconv.Atoi(banner[2])
		recovery, err := time.ParseDuration(banner[3])
		if err != nil {
			recovery = 0
		}
		addr := banner[4]

		if cycle > 0 {
			if replayed > maxReplayed {
				maxReplayed = replayed
			}
			rate := 0.0
			if sec := recovery.Seconds(); sec > 0 {
				rate = float64(replayed) / sec
			}
			// Benchmark-format (`name iters value unit...`), like the
			// journal scan rows of `go test -bench`.
			fmt.Fprintf(stdout, "BenchmarkChurnRecovery/cycle=%d \t1\t%d ns/op\t%d replayed\t%.0f replayed/s\n",
				cycle, recovery.Nanoseconds(), replayed, rate)
			if cfg.bound > 0 && replayed > cfg.bound {
				_ = child.Process.Kill()
				_, _ = child.Process.Wait()
				_ = outF.Close()
				fmt.Fprintf(stderr, "churn: FAIL generation %d replayed %d admissions, bound %d (watermark %d)\n",
					cycle, replayed, cfg.bound, watermark)
				return 1
			}
		}

		final := cycle == cfg.cycles
		sig := syscall.SIGKILL
		if final {
			sig = syscall.SIGTERM
		}
		acked, loadErr := churnLoad(addr, cfg.conns, cfg.mod, cfg.acksPer, func() error {
			return child.Process.Signal(sig)
		})
		waitErr := child.Wait()
		_ = outF.Close()
		if loadErr != nil {
			fmt.Fprintf(stderr, "churn: generation %d acknowledged only %d/%d: %v\n", cycle, acked, cfg.acksPer, loadErr)
			return 1
		}
		if final {
			if waitErr != nil {
				out, _ := os.ReadFile(outPath)
				fmt.Fprintf(stderr, "churn: final drain failed: %v\n%s", waitErr, out)
				return 1
			}
			fmt.Fprintf(stdout, "churn: %d kill/restart cycles, max replayed %d (bound %d), final watermark %d+%d\n",
				cfg.cycles, maxReplayed, cfg.bound, watermark, acked)
		}
	}
	return 0
}

// churnLoad drives closed-loop submissions and fires sig once target acks
// have landed — while the loaders are still mid-flight, so a SIGKILL always
// finds admitted-but-undelivered work and a SIGTERM drains under live
// traffic. Loader errors after the signal are the expected severed
// connections; an error is returned only when the target was never reached.
func churnLoad(addr string, conns, mod, target int, sig func() error) (int, error) {
	var (
		acked    atomic.Int64
		stopped  atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	getErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr
	}
	if mod < 1 {
		mod = 1
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := service.DialClient(addr)
			if err != nil {
				setErr(err)
				return
			}
			defer func() { _ = cl.Close() }()
			for i := 0; !stopped.Load(); i++ {
				if _, err := cl.Submit(ident.Value((c + i) % mod)); err != nil {
					setErr(err)
					return
				}
				acked.Add(1)
			}
		}(c)
	}
	deadline := time.Now().Add(60 * time.Second)
	for int(acked.Load()) < target && time.Now().Before(deadline) {
		if getErr() != nil {
			break // the server is gone; no point waiting out the deadline
		}
		time.Sleep(time.Millisecond)
	}
	sigErr := sig()
	stopped.Store(true)
	wg.Wait()
	got := int(acked.Load())
	if sigErr != nil {
		return got, sigErr
	}
	if got < target {
		return got, fmt.Errorf("only %d/%d acknowledged (first loader error: %v)", got, target, getErr())
	}
	return got, nil
}

// awaitChurnBanner polls the child's output file for the readiness banner.
func awaitChurnBanner(path string, timeout time.Duration) ([]string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		b, _ := os.ReadFile(path)
		if m := churnBanner.FindStringSubmatch(string(b)); m != nil {
			return m, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	b, _ := os.ReadFile(path)
	return nil, fmt.Errorf("banner never appeared in:\n%s", b)
}
