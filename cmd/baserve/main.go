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
//	baserve -protocol alg1-multi -t 3 -batch 32
//	baserve -protocol dolev-strong -n 16 -t 4 -transport tcp
//	baserve -protocol alg1-multi -t 3 -metrics-addr 127.0.0.1:9441 -trace run.jsonl
//
// Each flag is described by -h and by the README's flag table. The process
// is one run of the server lifecycle in internal/cli (cli.ServeMain): recovery
// and replay before the listener opens, the banner, and the SIGINT/SIGTERM
// drain in which admitted values still decide while new submissions are
// refused "ERR draining" — DESIGN.md §5.6 "The server lifecycle" gives its
// order and what each banner line promises; §5.7 durability, §5.8 the ops plane.
//
// The crash and upgrade drills (`make crash`, `make upgrade`) run this same
// process as a child: cli.Fork re-executes the test binary, whose TestMain
// hands the marked process to cli.ServeForked.
package main

import (
	"os"

	"byzex/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	return cli.ServeMain("baserve", args, stdout, stderr)
}
