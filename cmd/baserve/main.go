// Command baserve runs the multi-instance Byzantine Agreement service:
// it listens on a TCP address, admits values over a newline-delimited
// protocol (see internal/service), and serves each batch of values as one
// agreement instance over the chosen substrate.
//
// Flags mirror basim for the protocol template; the serving knobs are
// shared with baload's selfhost mode via cli.RegisterServeFlags:
//
//	baserve -protocol alg1 -n 7 -t 3 -addr :9000
//	baserve -protocol alg1-multi -t 3 -batch 16 -linger 2ms -shards 8
//	baserve -protocol alg1-multi -t 3 -adaptive -batch-max 32
//	baserve -protocol dolev-strong -n 16 -t 4 -transport tcp
//	baserve -protocol alg1-multi -t 3 -metrics-addr 127.0.0.1:9441 -trace run.jsonl
//
// -shards sets the number of concurrent instance executors; -adaptive
// replaces the fixed -batch size with a controller that grows the batch
// under backlog and shrinks it when idle (window [-batch-min, -batch-max]).
//
// The ops plane: -metrics-addr serves a Prometheus text /metrics endpoint
// (service gauges plus trace counters, one consistent snapshot per scrape);
// -trace spools the execution trace to disk as instances deliver, with
// admission-scoped events held in a bounded ring (-trace-ring), so tracing
// survives sustained load with constant memory.
//
// Durability: -journal-dir write-ahead journals every admission before it
// is acknowledged (-fsync picks per-record sync or a group-commit
// interval). On restart over the same directory, pending admissions are
// replayed byte-identically with their original ids before the listener
// opens — a recovered server never reuses an instance seed — and the
// recovery banner reports the watermark and replay count.
// -checkpoint-every / -checkpoint-interval bound the replay window while
// serving: checkpoints are cut at the delivered watermark on a record
// budget or timer, and fully delivered segments are pruned live.
//
// SIGINT/SIGTERM drains: admitted values still decide, new submissions are
// rejected with "ERR draining", the journal checkpoints (watermark +
// stats, old segments pruned), and the process exits once the queue is
// empty.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"byzex/internal/cli"
	"byzex/internal/journal"
	"byzex/internal/obs"
	"byzex/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("baserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := cli.RegisterServeFlags(fs)
	var (
		addr    = fs.String("addr", "127.0.0.1:9440", "listen address")
		verbose = fs.Bool("v", false, "print the trace summary table on drain")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	tmpl, warn, err := sf.Resolve()
	if err != nil {
		return fail(stderr, err)
	}
	if warn != "" {
		fmt.Fprintf(stderr, "warning: %s\n", warn)
	}
	svcCfg, err := sf.ServiceConfig(tmpl)
	if err != nil {
		return fail(stderr, err)
	}
	spool, closeSpool, err := sf.OpenSpool()
	if err != nil {
		return fail(stderr, err)
	}
	if spool != nil {
		svcCfg.Trace = spool
	}
	jw, rec, err := sf.OpenJournal(tmpl)
	if err != nil {
		return fail(stderr, err)
	}
	if jw != nil {
		svcCfg.Journal = jw
		svcCfg.FirstInstance = rec.FirstInstance()
		svcCfg.BaseStats = rec.BaseStats()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	svc, err := service.New(ctx, svcCfg)
	if err != nil {
		return fail(stderr, err)
	}

	// Recovery happens before the listener opens: pending admissions are
	// re-executed with their original ids (byte-identical instances) while
	// no live submission can interleave with the replay's dispatch path.
	if jw != nil {
		replayed, err := rec.Replay(svc, tmpl)
		if err != nil {
			return fail(stderr, err)
		}
		jw.SetReplayed(uint64(replayed))
		fmt.Fprintf(stdout, "journal: %s fsync=%s watermark=%d replayed=%d\n",
			*sf.JournalDir, *sf.Fsync, rec.Watermark, replayed)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(stderr, err)
	}

	// The metrics endpoint shares the process but not the serving listener:
	// scrapes stay cheap (zero-alloc renders of existing counters) and a
	// slow scraper cannot occupy a serving connection slot.
	var metricsDone chan error
	if *sf.MetricsAddr != "" {
		exp := obs.NewExporter()
		exp.Register(obs.NewServiceCollector(svc))
		if spool != nil {
			exp.Register(obs.NewSpoolCollector(spool))
		}
		if jw != nil {
			exp.Register(obs.NewJournalCollector(jw))
		}
		mln, err := net.Listen("tcp", *sf.MetricsAddr)
		if err != nil {
			return fail(stderr, err)
		}
		metricsDone = make(chan error, 1)
		go func() { metricsDone <- obs.Serve(ctx, mln, exp) }()
		fmt.Fprintf(stdout, "metrics: http://%s/metrics\n", mln.Addr())
	}

	batchDesc := fmt.Sprintf("batch=%d", svcCfg.BatchSize)
	if svcCfg.BatchMax > 1 {
		batchDesc = fmt.Sprintf("batch=adaptive[%d..%d]", svcCfg.BatchMin, svcCfg.BatchMax)
	}
	fmt.Fprintf(stdout, "baserve: %s n=%d t=%d %s shards=%d listening on %s\n",
		sf.Protocol, tmpl.N, tmpl.T, batchDesc, svc.Stats().Shards, ln.Addr())

	start := time.Now()
	if err := service.Serve(ctx, ln, svc); err != nil {
		return fail(stderr, err)
	}
	svc.Close()
	if metricsDone != nil {
		if err := <-metricsDone; err != nil {
			return fail(stderr, err)
		}
	}

	var jstats journal.Stats
	if jw != nil {
		// The service checkpointed during Close (and swallowed any error to
		// finish the drain); the writer's counters say whether any checkpoint
		// — including that final one — failed, and the writer's Close
		// surfaces the journal's true final state. Snapshot before Close so
		// the banner below can report a failed final checkpoint even when
		// Close itself errors the process out.
		jw.StatsInto(&jstats)
		if jstats.CheckpointFailures > 0 {
			fmt.Fprintf(stdout, "journal: warning: %d checkpoint write(s) failed; the next restart replays from the last good checkpoint\n",
				jstats.CheckpointFailures)
		}
		if err := jw.Close(); err != nil {
			return fail(stderr, err)
		}
	}

	st := svc.Stats()
	fmt.Fprintf(stdout, "drained after %v: %s\n", time.Since(start).Round(time.Millisecond), st.String())
	if spool != nil {
		if err := closeSpool(); err != nil {
			return fail(stderr, err)
		}
		spst := spool.Stats() // post-close: Flushed includes the ring tail
		fmt.Fprintf(stdout, "trace: %s (%d events, %d spooled, %d admission-scoped dropped)\n",
			*sf.TracePath, spst.Events, spst.Flushed, spst.Dropped)
		if *verbose {
			fmt.Fprint(stdout, spst.Summary.Table())
		}
	} else if *verbose {
		fmt.Fprintf(stdout, "amortized: %.2f msgs/value %.2f sigs/value\n",
			st.AmortizedMessagesPerValue(), st.AmortizedSignaturesPerValue())
	}
	return 0
}

func fail(stderr *os.File, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}
