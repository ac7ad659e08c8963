// Command baexp regenerates every evaluation table of the paper
// (experiments E1..E14; see DESIGN.md for the index) and prints them as
// aligned text. It exits non-zero if any measured count violates the
// corresponding bound.
//
// Usage:
//
//	baexp             # run all experiments
//	baexp -only E5    # run a single experiment
//	baexp -parallel 8 # bound sweep concurrency (default: one worker per CPU)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"byzex/internal/cli"
	"byzex/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("baexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "run a single experiment (E1..E14)")
	format := fs.String("format", "text", "output format: text|csv")
	parallel := fs.Int("parallel", runtime.NumCPU(),
		"max concurrent runs per experiment sweep (tables are byte-identical at any value)")
	// -trace is the merged trace of all sweep runs, merged in cell order, so
	// the file too is byte-identical at any -parallel value.
	rf := cli.RegisterRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	experiments.SetParallelism(*parallel)

	sink, stop, err := rf.Start()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	experiments.SetTrace(sink)
	code := tables(stdout, stderr, *only, *format)
	if err := stop(); err != nil {
		fmt.Fprintln(stderr, err)
		code = 1
	}
	return code
}

// tables runs the selected experiments and prints their tables; a bound
// violation is exit code 1, an unknown -only 2.
func tables(stdout, stderr io.Writer, only, format string) int {
	ctx := context.Background()
	var (
		out []*experiments.Table
		err error
	)
	if only == "" {
		out, err = experiments.All(ctx)
	} else {
		f, ok := experiments.ByID(only)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q\n", only)
			return 2
		}
		var tbl *experiments.Table
		if tbl, err = f(ctx); tbl != nil {
			out = append(out, tbl)
		}
	}
	for _, tbl := range out {
		if format == "csv" {
			fmt.Fprintln(stdout, tbl.CSV())
		} else {
			fmt.Fprintln(stdout, tbl.Render())
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
