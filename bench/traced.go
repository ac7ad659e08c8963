package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// spanLimit bounds the spans one traced run keeps (and writes, ~100 bytes
// each): every request of the traced window on the slower workloads, the
// first ~75 rounds of wire-small and ~6 s of durable-batch, whose medians do
// not need more.
const spanLimit = 150_000

// tracedWindows is the shape every traced run shares: an untraced window for
// the overhead base, then the same load with the seams switched on, with the
// calibration kernel timed in between so the run says how steady the machine
// was while it measured.
type tracedWindows struct {
	opt    options
	res    *result
	enable func() // switches span recording on for the traced window
	calib  []float64
	last   time.Time
}

// windowFunc runs one window of the workload's load for the given share of
// -seconds and returns its rounds.
type windowFunc func(share float64, minRounds int) []round

func newTracedWindows(opt options, res *result, enable func()) *tracedWindows {
	return &tracedWindows{opt: opt, res: res, enable: enable}
}

// tick times the calibration kernel if a quarter second has passed since the
// last reading; closed-loop workloads call it between rounds.
func (tw *tracedWindows) tick() {
	if time.Since(tw.last) >= 250*time.Millisecond {
		tw.reading()
	}
}

// reading times the calibration kernel now.
func (tw *tracedWindows) reading() {
	tw.calib = append(tw.calib, ms(calibKernel()))
	tw.last = time.Now()
}

// closed adapts a round function to a windowFunc.
func (tw *tracedWindows) closed(one func() round) windowFunc {
	return func(share float64, minRounds int) []round {
		window, min := tw.opt.window(share, minRounds)
		return runRounds(window, min, func() round {
			tw.tick()
			return one()
		})
	}
}

// run measures the untraced base window and the traced window, and writes
// the run-wide per-layer metrics (trace overhead, runtime counters, p99).
// It returns the traced window's summary.
func (tw *tracedWindows) run(minRounds int, window windowFunc) roundSummary {
	res := tw.res
	tw.reading()
	base := summarize(window(1.0/6, (minRounds+2)/3))
	// The ack quantiles and CPU per value are read on the untraced window, so
	// the recorder's own work is not in them.
	res.values["ack_p50_ms"] = base.p50ms.best
	res.values["ack_p90_ms"] = base.p90ms.best
	res.values["runtime.cpu_us_per_value"] = base.cpuUs.best
	tw.reading()
	tw.enable()
	m0 := readMem()
	rounds := window(1.0/3, minRounds)
	m1 := readMem()
	tw.reading()

	s := summarize(rounds)
	var values int
	var lat []time.Duration
	for _, r := range rounds {
		values += r.values
		lat = append(lat, r.lat...)
	}
	if base.valuesPerS.best > 0 {
		res.values["harness.trace_overhead_pct"] = 100 * (base.valuesPerS.best - s.valuesPerS.best) / base.valuesPerS.best
	}
	if values > 0 {
		res.values["runtime.alloc_kb_per_value"] = float64(m1.totalAlloc-m0.totalAlloc) / 1024 / float64(values)
	}
	res.values["runtime.gc_cycles"] = float64(m1.numGC - m0.numGC)
	res.values["runtime.gc_pause_ms"] = float64(m1.pauseNs-m0.pauseNs) / 1e6
	_, _, p99 := durQuantiles(lat)
	res.values["ack_p99_ms"] = ms(p99)
	res.shadow["untraced.values_per_s"] = base.valuesPerS.best
	res.shadow["traced.values_per_s"] = s.valuesPerS.best
	res.shadow["traced.ack_p50_ms"] = s.p50ms.best
	res.shadow["traced.ack_p90_ms"] = s.p90ms.best
	res.shadow["traced.cpu_us_per_value"] = s.cpuUs.best
	res.shadow["traced.rounds"] = float64(s.rounds)
	return s
}

// finish writes the span file, the machine calibration readings, and a zero
// for every per-layer metric this workload's layers do not touch.
func (tw *tracedWindows) finish(rec *recorder) error {
	res := tw.res
	c := bestRounds(tw.calib, false, mean(tw.calib))
	res.values["machine.calib_ms_best"] = c.best
	res.values["machine.calib_ms_med"] = c.med
	for _, m := range perLayer {
		if _, ok := res.values[m.Name]; !ok {
			res.values[m.Name] = 0
		}
	}
	// One file per workload, overwritten by the next traced run, so repeated
	// runs do not fill the checkout.
	path, err := rec.writeJSONL(filepath.Join(tw.opt.scratch, "trace"), res.workload)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	res.shadow["spans"] = float64(rec.len())
	res.spanFile = path
	return nil
}
