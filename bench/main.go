// Command bench is the repository's one benchmark ledger: four pinned
// workloads, seven end-to-end metrics each, and per-layer numbers from a
// traced re-run. See README.md in this directory for the tables and the
// reasoning; BENCHMARK.json at the repository root is the contract with the
// driver and is generated from spec.go (`-spec`).
//
//	bash bench/run.sh                                  all four workloads
//	bash bench/run.sh --workload wire-small --seed 7   one workload, fresh seed
//	bash bench/run.sh --trace 1                        per-layer metrics + span files
//	bash bench/run.sh --selfcheck                      two runs of the same code, compared
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloadTimeout is the hard limit on one workload run, under the driver's
// 180 s cap.
const workloadTimeout = 170 * time.Second

// scratchRoot is where temp journal directories and span files go: inside
// the checkout, so a run never writes outside it, and under the one
// directory .gitignore names.
var scratchRoot = filepath.Join(".bench_build", "scratch")

var runners = map[string]func(context.Context, options) (*result, error){
	wlWireSmall:    runWireSmall,
	wlDurableBatch: runDurableBatch,
	wlMeshDelay:    runMeshDelay,
	wlSweepLarge:   runSweepLarge,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), "|")+" (default: all, each in its own child process)")
		seed      = fs.Int64("seed", 1, "input seed: value sequences, the Poisson schedule and Template.Seed")
		seconds   = fs.Float64("seconds", runSeconds, "length of one measured window")
		trace     = fs.Int("trace", 0, "1 re-runs the workloads with harness-side spans and prints the per-layer metrics")
		selfcheck = fs.Bool("selfcheck", false, "run the whole benchmark twice and compare every end-to-end metric against its bound")
		spec      = fs.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		_, _ = stdout.Write(b)
		return 0
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, scratch: scratchRoot}
	switch {
	case *selfcheck:
		return selfCheck(opt, stdout, stderr)
	case *workload == "":
		_, code := runAll(opt, stdout, stderr)
		return code
	}
	run, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (known: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	// A run killed from outside leaves its journal copies behind; clear them
	// before starting, as the watchdog does before it exits.
	opt.removeJournalDirs()
	watchdog := time.AfterFunc(workloadTimeout, func() {
		fmt.Fprintf(stderr, "bench: %s exceeded %v\n", *workload, workloadTimeout)
		opt.removeJournalDirs()
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := run(context.Background(), opt)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	return report(res, opt, stdout, stderr)
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// outcome is the last line of a workload run's standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table, then the contract's JSON line, and
// returns the exit code: non-zero when any output check failed.
func report(res *result, opt options, stdout, stderr io.Writer) int {
	specs := endToEnd
	if opt.trace {
		specs = perLayer
	}
	out := outcome{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "workload %s  seed %d  GOMAXPROCS %d  attempted %d  failed %d\n",
		res.workload, opt.seed, res.procs, res.attempted, res.failed)
	missing := 0
	for _, m := range specs {
		v, ok := res.values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s missing or not finite\n", res.workload, m.Name)
			missing++
			continue
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("  %-34s %14.4f %-6s", m.Name, v, m.Unit)
		if med, ok := res.shadow[m.Name+".med"]; ok {
			line += fmt.Sprintf("  (.med %.4f  .mean %.4f)", med, res.shadow[m.Name+".mean"])
		}
		fmt.Fprintln(stdout, line)
	}
	var extra []string
	for k := range res.shadow {
		if !strings.HasSuffix(k, ".med") && !strings.HasSuffix(k, ".mean") {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(stdout, "  # %-32s %14.4f\n", k, res.shadow[k])
	}
	if res.spanFile != "" {
		fmt.Fprintf(stdout, "  # spans written to %s\n", res.spanFile)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "bench: %s: FAILED CHECK: %s\n", res.workload, p)
	}
	if res.attempted < 1 {
		fmt.Fprintf(stderr, "bench: %s attempted nothing\n", res.workload)
		return 1
	}
	if missing > 0 {
		return 1
	}
	out.Correct = res.failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process re-exec'd from this
// binary, so peak RSS, allocation counts and GOMAXPROCS are per workload.
func runAll(opt options, stdout, stderr io.Writer) (map[string]outcome, int) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return nil, 1
	}
	all := map[string]outcome{}
	code := 0
	for _, name := range workloadNames() {
		out, err := runChild(self, name, opt, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			code = 1
			continue
		}
		all[name] = out
	}
	return all, code
}

func runChild(self, name string, opt options, stdout, stderr io.Writer) (outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadTimeout+10*time.Second)
	defer cancel()
	args := []string{
		"-workload", name,
		"-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds),
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stdout = io.MultiWriter(&buf, stdout)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return outcome{}, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return outcome{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return out, nil
}

// selfCheck is the reproducible form of "two runs of the same code agree":
// the whole benchmark twice, back to back, every workload x end-to-end
// metric compared against that metric's own bound.
func selfCheck(opt options, stdout, stderr io.Writer) int {
	if opt.trace {
		fmt.Fprintln(stderr, "bench: -selfcheck compares end-to-end metrics; run it without -trace")
		return 2
	}
	var sets [2]map[string]outcome
	var calib [2]estimate
	for i := range sets {
		calib[i] = calibrate(15)
		fmt.Fprintf(stdout, "== set %d  machine.calib_ms_best %.3f  machine.calib_ms_med %.3f\n", i+1, calib[i].best, calib[i].med)
		var code int
		if sets[i], code = runAll(opt, stdout, stderr); code != 0 {
			return code
		}
	}
	fmt.Fprintf(stdout, "\n%-14s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	failed := 0
	for _, w := range workloadNames() {
		for _, m := range endToEnd {
			a, b := sets[0][w].Metrics[m.Name].Value, sets[1][w].Metrics[m.Name].Value
			worse := relWorse(a, b, m.Better)
			verdict := "PASS"
			if math.Abs(worse) > m.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "%-14s %-22s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", w, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "machine.calib_ms_best %.3f -> %.3f   machine.calib_ms_med %.3f -> %.3f\n",
		calib[0].best, calib[1].best, calib[0].med, calib[1].med)
	if failed > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d of %d readings moved by more than their bound\n", failed, len(workloadSpecs)*len(endToEnd))
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: PASS")
	return 0
}

// relWorse returns by what share of a the second reading b is worse than a
// (negative when it is better).
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
