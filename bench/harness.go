package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/service"
	"byzex/internal/sim"
)

// options is what one workload run is asked to do.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// small selects smoke-test sizes: a few short rounds, one cold start.
	small bool
	// scratch is where temp journal directories and span files go.
	scratch string
}

// pick returns full, or smoke under -small.
func (o options) pick(full, smoke int) int {
	if o.small {
		return smoke
	}
	return full
}

// window is how long to keep starting rounds, and the fewest to run.
func (o options) window(share float64, minRounds int) (time.Duration, int) {
	if o.small {
		return 0, 3
	}
	return time.Duration(o.seconds * share * float64(time.Second)), minRounds
}

// result is what one workload run reports.
type result struct {
	workload  string
	procs     int
	attempted int
	failed    int
	// problems lists the first few output-check violations by name.
	problems []string
	// values holds the contract metrics (end-to-end, or per-layer under
	// -trace); shadow holds the *.med / *.mean readings and other context
	// that is printed but never gated.
	values map[string]float64
	shadow map[string]float64
	// spanFile is where a traced run wrote its spans.
	spanFile string
}

func newResult(name string, procs int) *result {
	return &result{workload: name, procs: procs, values: map[string]float64{}, shadow: map[string]float64{}}
}

// fail counts n failed operations and keeps the first few reasons.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) setEstimate(name string, e estimate) {
	r.values[name] = e.best
	r.shadow[name+".med"] = e.med
	r.shadow[name+".mean"] = e.mean
}

// setTimings writes throughput, the one round-derived end-to-end metric, and
// the ack quantiles and CPU per value as context.
func (r *result) setTimings(s roundSummary) {
	r.setEstimate("values_per_s", s.valuesPerS)
	r.shadow["ack_p50_ms"] = s.p50ms.best
	r.shadow["ack_p90_ms"] = s.p90ms.best
	r.shadow["cpu_us_per_value"] = s.cpuUs.best
	r.shadow["rounds"] = float64(s.rounds)
}

// setCosts writes the count-per-value end-to-end metrics from a service.Stats
// delta and a MemStats delta over the whole window.
func (r *result) setCosts(before, after service.Stats, m0, m1 memSnap) {
	values := float64(after.ValuesDecided - before.ValuesDecided)
	if values <= 0 {
		return
	}
	r.values["msgs_per_value"] = float64(after.MessagesCorrect-before.MessagesCorrect) / values
	r.values["sigs_per_value"] = float64(after.SignaturesCorrect-before.SignaturesCorrect) / values
	r.values["wire_bytes_per_value"] = float64(after.BytesCorrect-before.BytesCorrect) / values
	r.values["allocs_per_value"] = float64(m1.mallocs-m0.mallocs) / values
	r.shadow["alloc_kb_per_value"] = float64(m1.totalAlloc-m0.totalAlloc) / 1024 / values
	r.shadow["gc_cycles"] = float64(m1.numGC - m0.numGC)
	r.shadow["gc_pause_ms"] = float64(m1.pauseNs-m0.pauseNs) / 1e6
}

// runEndToEnd is the untraced run every workload shares. start is a full
// cold start including its warm-up, stop tears the stack down again, window
// measures on the stack the last start left up and writes its metrics.
//
// setup_s is read off several cold starts the way every timing is read off
// its rounds: at the best (of ten or fewer, the fastest), with their median
// and mean printed beside it. On the build box a start runs at one of two
// speeds 40% apart, seconds at a time, and the median of seven lands on
// either; the slow speed is the neighbour's. Some starts come before the
// window and some after it, because starts taken back to back tend to read
// the same speed.
func runEndToEnd(opt options, res *result, start func() error, stop func(), window func()) error {
	var secs []float64
	cold := func(n int) error {
		for i := 0; i < n; i++ {
			// Return the previous stack's memory before timing a start, so
			// every start begins from the same heap.
			runtime.GC()
			t0 := time.Now()
			if err := start(); err != nil {
				return err
			}
			secs = append(secs, time.Since(t0).Seconds())
			if i < n-1 {
				stop()
			}
		}
		return nil
	}
	if err := cold(opt.pick(4, 1)); err != nil {
		return err
	}
	u0, s0 := cpuTimes()
	window()
	u1, s1 := cpuTimes()
	if done := float64(res.attempted - res.failed); done > 0 {
		res.shadow["cpu_user_us_per_value"] = us(u1-u0) / done
		res.shadow["cpu_sys_us_per_value"] = us(s1-s0) / done
	}
	stop()
	if after := opt.pick(3, 0); after > 0 {
		if err := cold(after); err != nil {
			return err
		}
		stop()
	}
	res.setEstimate("setup_s", bestRounds(secs, false, mean(secs)))
	res.values["peak_rss_mb"] = peakRSSMB()
	return nil
}

// observed is one served instance as a client saw it, kept for the serial
// re-run check.
type observed struct {
	id        uint64
	packed    ident.Value
	decided   ident.Value
	decisions map[ident.ProcID]sim.Decision // nil when seen over the wire
}

// observedResult is the in-process form of an observed instance: it carries
// the per-processor decisions, so the serial re-run compares them all.
func observedResult(r service.Result) observed {
	inst := r.Instance
	return observed{id: inst.ID, packed: inst.Config.Value, decided: r.Decided, decisions: inst.Decisions}
}

// reservoir keeps a seeded uniform sample of the instances a window served.
type reservoir struct {
	rng  *rand.Rand
	seen int
	keep []observed
}

const sampleSize = 64

func newReservoir(seed int64) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed ^ 0x5a17)), keep: make([]observed, 0, sampleSize)}
}

func (rv *reservoir) add(o observed) {
	rv.seen++
	if len(rv.keep) < sampleSize {
		rv.keep = append(rv.keep, o)
		return
	}
	if j := rv.rng.Intn(rv.seen); j < sampleSize {
		rv.keep[j] = o
	}
}

// recheck re-runs every sampled instance serially through core.Run
// (seed = template seed + instance id, value = the packed batch value) and
// requires the decisions the service reported; each mismatch is a failure.
func (rv *reservoir) recheck(ctx context.Context, tmpl core.Config, res *result) {
	for _, o := range rv.keep {
		cfg := tmpl
		cfg.Value = o.packed
		cfg.Seed = tmpl.Seed + int64(o.id)
		cfg.Trace = nil
		out, decided, err := core.RunAndCheck(ctx, cfg)
		switch {
		case err != nil:
			res.fail(1, "instance %d: serial re-run: %v", o.id, err)
		case decided != o.decided:
			res.fail(1, "instance %d: served %v, serial re-run decided %v", o.id, o.decided, decided)
		case o.decisions != nil && !reflect.DeepEqual(o.decisions, out.Sim.Decisions):
			res.fail(1, "instance %d: per-processor decisions differ from the serial re-run", o.id)
		}
	}
	res.shadow["rechecked_instances"] = float64(len(rv.keep))
}

const journalDirPattern = "durable-batch-*"

// journalDir makes a fresh directory for one run's journals under the
// scratch root.
func (o options) journalDir() (string, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.scratch, journalDirPattern)
}

// removeJournalDirs deletes every run's journal directory under the scratch
// root: the stale ones of a killed run, or this run's own when the watchdog
// ends it without unwinding.
func (o options) removeJournalDirs() {
	stale, _ := filepath.Glob(filepath.Join(o.scratch, journalDirPattern))
	for _, dir := range stale {
		_ = os.RemoveAll(dir)
	}
}
