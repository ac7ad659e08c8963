// Command basim runs a single Byzantine Agreement instance and prints the
// decisions and the information-exchange metrics.
//
// The agreement line is the verdict of core.CheckDecisions as the protocol's
// registry class reads it (cli.Class.Verdict), on either transport. basim
// exits 0 when the run agreed, 1 when it violated agreement — strawmen
// included — or failed, and 2 on a usage error.
//
// Usage examples:
//
//	basim -protocol alg1 -t 4                         # n defaults to 2t+1
//	basim -protocol alg5 -n 256 -t 4 -s 4 -value 1
//	basim -protocol alg3 -n 100 -t 3 -s 12 -adversary split-brain
//	basim -protocol dolev-strong -n 16 -t 4 -transport tcp
//	basim -protocol alg2 -t 3 -dump run.json          # JSON transcript
//	basim -protocol alg1 -t 2 -transport tcp -faults "crash=1@2;drop=0->2@1-3"
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"byzex/internal/audit"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/sim"
	"byzex/internal/trace"
	"byzex/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("basim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tp := cli.RegisterTemplateFlags(fs, "alg5")
	rf := cli.RegisterRunFlags(fs)
	var (
		value     = fs.Int64("value", 1, "transmitter's value")
		trans     = fs.String("transport", "memory", "transport: memory|tcp")
		verbose   = fs.Bool("v", false, "print per-phase message counts")
		dump      = fs.String("dump", "", "write the full message transcript (JSON) to this file (memory transport only)")
		metricsTo = fs.String("metrics", "", "write the metrics report (JSON) to this file, for batrace -report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dump != "" && *trans == "tcp" {
		fmt.Fprintln(stderr, "-dump needs the recorded history only -transport memory keeps; drop -dump or -transport tcp")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// The same resolution baserve and baload use; an over-budget plan is
	// flagged up front, and core.Runner.Setup refuses it.
	cfg, err := tp.ResolveWarn(stderr)
	if err != nil {
		return fail(err)
	}
	cfg.Value = ident.Value(*value)
	entry, err := cli.Lookup(tp.Protocol)
	if err != nil {
		return fail(err)
	}

	traceOut, stop, err := rf.Start()
	if err != nil {
		return fail(err)
	}
	// The run traces into a buffer so the trace can be cross-checked against
	// the metrics before it is written. cfg.Trace stays a nil interface when
	// tracing is off — assigning a nil *trace.Buffer directly would defeat
	// the producers' nil checks.
	var traceBuf *trace.Buffer
	if traceOut != nil {
		traceBuf = trace.NewBuffer()
		cfg.Trace = traceBuf
	}

	start := time.Now()
	var verdict error
	err = func() error {
		ctx := context.Background()
		var report metrics.Report
		switch *trans {
		case "memory":
			var (
				res  *core.Result
				hist *audit.History
				err  error
			)
			if *dump != "" {
				res, hist, err = audit.Record(ctx, cfg)
			} else {
				res, err = core.Run(ctx, cfg)
			}
			if err != nil {
				return err
			}
			report = res.Sim.Report
			verdict = printOutcome(stdout, entry.Class, cfg, res.Faulty, res.Sim.Decisions, report.String())
			if *verbose {
				fmt.Fprint(stdout, report.Table())
			}
			if *dump != "" {
				f, err := os.Create(*dump)
				if err != nil {
					return err
				}
				if err := hist.Export(f); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "transcript: %s (%d phases)\n", *dump, hist.NumPhases())
			}
		case "tcp":
			res, err := transport.RunCluster(ctx, cfg, transport.Net{})
			if err != nil {
				return err
			}
			report = res.Report
			verdict = printOutcome(stdout, entry.Class, cfg, res.Faulty, res.Decisions, report.String())
		default:
			return fmt.Errorf("unknown transport %q", *trans)
		}

		if traceBuf != nil {
			if err := writeTrace(stdout, rf.TracePath, traceBuf, traceOut, report, *verbose); err != nil {
				return err
			}
		}
		if *metricsTo != "" {
			data, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*metricsTo, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "metrics report: %s\n", *metricsTo)
		}
		return nil
	}()
	// stop runs whatever the run did, so a started CPU profile is finalized
	// and the trace file closed on the error paths too.
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if verdict != nil {
		return 1
	}
	return 0
}

// writeTrace cross-checks the trace's per-phase attribution against the
// run's metrics — a trace that disagrees with the collector means the
// instrumentation drifted and is an error, not output — then hands the
// events to the -trace file's sink (flushed by the caller's stop).
func writeTrace(stdout io.Writer, path string, buf *trace.Buffer, out trace.Sink, report metrics.Report, verbose bool) error {
	sum := trace.Summarize(buf.Events())
	if err := sum.CheckReport(report); err != nil {
		return fmt.Errorf("trace disagrees with metrics: %w", err)
	}
	fmt.Fprintf(stdout, "trace: %s (%d events, consistent with metrics)\n", path, buf.Len())
	buf.DrainTo(out)
	if verbose {
		fmt.Fprint(stdout, sum.Table())
	}
	return nil
}

// printOutcome prints a run's faulty set, its correct processors' decisions
// (an undecided one shows as such) and metrics, then the agreement verdict:
// core.CheckDecisions read by the protocol's class. It returns the verdict.
func printOutcome(stdout io.Writer, class cli.Class, cfg core.Config, faulty ident.Set, dec map[ident.ProcID]sim.Decision, report string) error {
	counts := make(map[string]int)
	for id, d := range dec {
		switch {
		case faulty.Has(id):
		case d.Decided:
			counts[fmt.Sprint(d.Value)]++
		default:
			counts["undecided"]++
		}
	}
	fmt.Fprintf(stdout, "faulty: %v\n", faulty.Sorted())
	fmt.Fprintf(stdout, "transmitter value: %v\n", cfg.Value)
	fmt.Fprintf(stdout, "correct decisions: %v\n", counts)
	fmt.Fprintf(stdout, "metrics: %s\n", report)
	_, err := core.CheckDecisions(dec, faulty, cfg.Transmitter, cfg.Value)
	if err = class.Verdict(err); err != nil {
		fmt.Fprintf(stdout, "agreement: VIOLATED — %v\n", err)
	} else {
		fmt.Fprintln(stdout, "agreement: OK")
	}
	return err
}
