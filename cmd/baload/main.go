// Command baload drives load against a baserve through service.RunLoad, the
// one load loop, in either of its two arrival shapes:
//
// Closed loop (default): each of -c connections keeps exactly one request
// outstanding, retrying backpressure rejections. Offered load adapts to the
// server — good for throughput ceilings, blind to overload latency.
//
// Open loop (-rate): submissions arrive as a Poisson process at -rate
// arrivals per second for -duration, fanned out over -c connections,
// whether or not earlier requests finished. Latency is measured from each
// request's scheduled arrival (coordinated-omission-free) and queue-full
// rejections are shed, not retried. A fixed -seed reproduces the arrival
// schedule exactly. -slo-p99 turns the run into a gate: if the p99 latency
// exceeds the bound (or any arrival fails outright), the exit code is
// non-zero — the `make slo` contract.
//
//	baload -addr 127.0.0.1:9440 -c 100 -requests 3
//	baload -addr 127.0.0.1:9440 -c 16 -verify -protocol alg1 -n 7 -t 3
//	baload -selfhost -protocol alg1-multi -t 3 -shards 4 -batch 16 -c 32
//	baload -selfhost -protocol alg1-multi -t 3 -rate 500 -duration 5s -slo-p99 50ms
//
// With -selfhost, baload runs the server lifecycle of internal/cli in-process
// on a loopback port — baserve's bring-up, banner and drain, configured by the
// same serving flags (DESIGN.md §5.6 "The server lifecycle") — loads it, then
// drains it; a failed drain fails the run.
//
// With -verify, every distinct instance observed in the replies is
// re-executed serially with core.Run on the (seed, packed value) the server
// reported; the template flags must match the server's. Any divergence in
// the decided value or the correct-sender message/signature counts is a
// verification failure and the exit code is non-zero.
//
// With -churn N (requires -journal-dir), baload becomes the journal churn
// drill: it forks this binary as a journaled server with cli.Fork — the
// serving process baserve is, given every serving flag baload was given; main
// routes the forked process there through cli.ServeForked — loads it with an
// uncapped closed loop, SIGKILLs it mid-load at the -churn-acks-th
// acknowledgement, restarts it over the same journal directory, and repeats N
// times (the final generation drains via SIGTERM). Each restart's replay count
// is gated against the checkpoint budget, and its recovery time (the banner's
// recovery= field) is printed in benchmark format:
//
//	baload -churn 3 -churn-acks 48 -c 8 -protocol alg1 -t 1 \
//	    -journal-dir /tmp/churn -fsync always -checkpoint-every 16
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/service"
)

func main() {
	cli.ServeForked("baload") // the churn drill's server child
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) (code int) {
	fs := flag.NewFlagSet("baload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := cli.RegisterServeFlags(fs)
	var (
		addr     = fs.String("addr", "127.0.0.1:9440", "baserve address")
		conns    = fs.Int("c", 16, "connection fan-out (closed loop: one outstanding request each; open loop: in-flight bound)")
		requests = fs.Int("requests", 8, "closed loop: successful submissions per connection")
		mod      = fs.Int("mod", 2, "values cycle over [0,mod); keep 2 for binary protocols")
		verify   = fs.Bool("verify", false, "re-run every observed instance serially and compare")
		selfhost = fs.Bool("selfhost", false, "start an in-process server on 127.0.0.1:0 from the serving flags and load it")

		// Open-loop mode and its SLO gate.
		rate     = fs.Float64("rate", 0, "open loop: Poisson arrival rate in submissions/s (0 = closed loop)")
		duration = fs.Duration("duration", 2*time.Second, "open loop: arrival window")
		sloP99   = fs.Duration("slo-p99", 0, "open loop: exit non-zero unless p99 latency <= this bound (0 = no gate)")

		// Kill/restart drill over a journaled child server.
		churn     = fs.Int("churn", 0, "journal churn drill: fork a journaled server, SIGKILL and restart it this many times under load (requires -journal-dir)")
		churnAcks = fs.Int("churn-acks", 64, "churn: acknowledged submissions per server generation before the signal")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *mod < 1 {
		*mod = 1
	}
	if *rate == 0 && *sloP99 > 0 {
		fmt.Fprintln(stderr, "-slo-p99 requires the open loop (-rate): closed-loop latency hides overload")
		return 2
	}
	if *churn > 0 {
		if *sf.JournalDir == "" {
			fmt.Fprintln(stderr, "-churn requires -journal-dir: the drill measures journal recovery")
			return 2
		}
		if *selfhost || *rate > 0 || *verify {
			fmt.Fprintln(stderr, "-churn is its own drill; drop -selfhost/-rate/-verify")
			return 2
		}
		return runChurn(churnConfig{
			cycles: *churn, acksPer: *churnAcks, conns: *conns, mod: *mod,
			bound:     churnBound(sf, *conns),
			serveArgs: append(cli.ServeArgs(fs), "-addr=127.0.0.1:0"),
		}, stdout, stderr)
	}

	tmpl, err := sf.ResolveWarn(stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	ctx := context.Background()
	var hosted *cli.Server
	if *selfhost {
		if hosted, err = sf.Start(ctx, tmpl, "127.0.0.1:0"); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			failures, err := hosted.Drain()
			cli.CheckpointWarning(stdout, failures)
			if err != nil {
				fmt.Fprintln(stderr, err)
				code = 1
			}
		}()
		hosted.Banner(stdout, "selfhost")
		*addr = hosted.Addr
	}

	valueFor := func(c, i int) ident.Value { return ident.Value((c + i) % *mod) }
	if *rate > 0 { // an open-loop arrival's value depends on its index alone
		valueFor = func(_, i int) ident.Value { return ident.Value(i % *mod) }
	}
	load, err := service.RunLoad(ctx, service.LoadConfig{
		Addr:     *addr,
		Conns:    *conns,
		Requests: max(*requests, 1),
		Rate:     *rate,
		Duration: *duration,
		Seed:     sf.Seed,
		ValueFor: valueFor,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *rate > 0 {
		fmt.Fprintf(stdout, "offered: %d arrivals at %.0f/s over %v (seed %d)\n",
			load.Offered, *rate, *duration, sf.Seed)
		fmt.Fprintf(stdout, "submitted: %d ok, %d shed, %d distinct instances\n",
			load.Submitted, load.Rejected, len(load.Instances))
	} else {
		fmt.Fprintf(stdout, "submitted: %d ok, %d backpressure retries, %d distinct instances\n",
			load.Submitted, load.Rejected, len(load.Instances))
	}
	fmt.Fprintf(stdout, "throughput: %.1f values/s over %v\n", load.Throughput(), load.Elapsed.Round(load.Elapsed/1000+1))
	fmt.Fprintf(stdout, "latency: p50=%v p90=%v p99=%v\n",
		load.Percentile(50), load.Percentile(90), load.Percentile(99))
	fmt.Fprintf(stdout, "amortized: %.2f msgs/value %.2f sigs/value (%d values, %d msgs, %d sigs)\n",
		load.AmortizedMsgsPerValue(), amortizedSigs(load), load.ValuesServed, load.MsgsTotal, load.SigsTotal)
	if hosted != nil {
		fmt.Fprintf(stdout, "server: %s\n", hosted.Service.Stats().String())
	}

	if *sloP99 > 0 {
		p99 := load.Percentile(99)
		if load.Submitted == 0 || p99 > *sloP99 {
			fmt.Fprintf(stderr, "slo: FAIL p99=%v > bound %v (%d/%d arrivals served)\n",
				p99, *sloP99, load.Submitted, load.Offered)
			return 1
		}
		fmt.Fprintf(stdout, "slo: ok p99=%v <= %v\n", p99, *sloP99)
	}

	if !*verify {
		return 0
	}
	if bad := verifyInstances(stdout, stderr, tmpl, load.Instances); bad > 0 {
		fmt.Fprintf(stderr, "verify: %d/%d instances diverged from serial re-execution\n", bad, len(load.Instances))
		return 1
	}
	fmt.Fprintf(stdout, "verify: %d instances match serial core.Run exactly\n", len(load.Instances))
	return 0
}

// verifyInstances re-runs each served instance with core.Run on the same
// seed and packed value and counts divergences.
func verifyInstances(stdout, stderr *os.File, tmpl core.Config, instances map[uint64]service.Reply) int {
	ids := make([]uint64, 0, len(instances))
	for id := range instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	bad := 0
	for _, id := range ids {
		reply := instances[id]
		cfg := tmpl
		cfg.Value = reply.Packed
		cfg.Seed = reply.Seed
		serial, err := core.Run(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(stderr, "verify: instance %d: serial run: %v\n", id, err)
			bad++
			continue
		}
		decided, err := serial.Decision(cfg.Transmitter, cfg.Value)
		if err != nil {
			fmt.Fprintf(stderr, "verify: instance %d: %v\n", id, err)
			bad++
			continue
		}
		if decided != reply.Decided {
			fmt.Fprintf(stderr, "verify: instance %d: served decision %v, serial %v\n", id, reply.Decided, decided)
			bad++
			continue
		}
		if serial.Sim.Report.MessagesCorrect != reply.Msgs || serial.Sim.Report.SignaturesCorrect != reply.Sigs {
			fmt.Fprintf(stderr, "verify: instance %d: served msgs/sigs %d/%d, serial %d/%d\n",
				id, reply.Msgs, reply.Sigs, serial.Sim.Report.MessagesCorrect, serial.Sim.Report.SignaturesCorrect)
			bad++
		}
	}
	return bad
}

func amortizedSigs(ls *service.LoadStats) float64 {
	if ls.ValuesServed == 0 {
		return 0
	}
	return float64(ls.SigsTotal) / float64(ls.ValuesServed)
}
