package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// A round is one fixed-op-count slice of a timed window. Every round yields
// its own throughput, latency quantiles and CPU time; the workload's value is
// read off the best rounds (see bestRounds), because on a shared box
// interference only ever slows a round down: the fastest rounds are the
// program, the rest is the neighbour.
type round struct {
	values int           // decided, correct values in the round
	wall   time.Duration // first submit to last ack
	cpu    time.Duration // process user+sys CPU spent during the round
	p50    time.Duration // nearest-rank ack quantiles within the round
	p90    time.Duration
	lat    []time.Duration // raw latencies, kept by traced runs only
}

// estimate is one quantity read three ways: the gated best-rounds value, and
// the all-rounds median and whole-window mean printed beside it so that
// disturbance stays visible.
type estimate struct {
	best, med, mean float64
}

// quantile returns the nearest-rank (ceiling) q-quantile of sorted xs, the
// same definition service.LoadStats.Percentile uses.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// bestRounds reads a per-round series at its third best round (with twenty
// rounds or fewer, at the best tenth): not the best or the second best, so
// one timer glitch cannot set the value, and no deeper, because what disturbs
// a round here comes in stretches and a disturbed window may hold only a
// handful of quiet rounds. Higher-is-better series (throughput) count from
// the top, lower-is-better ones (latency, CPU) from the bottom.
//
// Measured on the 2-vCPU build box (wire-small, ten 25 s runs of ~1150 22-ms
// rounds): on a quiet box the 3rd best round spread 1.4% across runs
// (quartiles over median), the 12th best 1.6%, the all-rounds median 2.5%;
// while the box slowed for three minutes the all-rounds median fell 20% and
// the 12th best round 10%. A run that sits on a slow stretch from end to end
// reads slow whatever the estimator.
func bestRounds(perRound []float64, higherBetter bool, windowMean float64) estimate {
	s := sortedCopy(perRound)
	if len(s) == 0 {
		return estimate{mean: windowMean}
	}
	k := min(3, (len(s)+9)/10)
	best := s[k-1]
	if higherBetter {
		best = s[len(s)-k]
	}
	return estimate{best: best, med: quantile(s, 0.50), mean: windowMean}
}

// durQuantiles returns the nearest-rank p50/p90/p99 of lat, sorting it in
// place.
func durQuantiles(lat []time.Duration) (p50, p90, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) time.Duration {
		idx := int(math.Ceil(q*float64(len(lat)))) - 1
		if idx < 0 {
			idx = 0
		}
		return lat[idx]
	}
	return at(0.50), at(0.90), at(0.99)
}

// roundSummary folds the rounds of one window into the timing estimates.
type roundSummary struct {
	valuesPerS estimate
	p50ms      estimate
	p90ms      estimate
	cpuUs      estimate
	rounds     int
}

func summarize(rs []round) roundSummary {
	var (
		tput, p50, p90, cpu []float64
		values              int
		wall, cpuSum        time.Duration
	)
	for _, r := range rs {
		if r.values == 0 || r.wall <= 0 {
			continue
		}
		tput = append(tput, float64(r.values)/r.wall.Seconds())
		p50 = append(p50, ms(r.p50))
		p90 = append(p90, ms(r.p90))
		cpu = append(cpu, us(r.cpu)/float64(r.values))
		values += r.values
		wall += r.wall
		cpuSum += r.cpu
	}
	out := roundSummary{rounds: len(tput)}
	if len(tput) == 0 {
		return out
	}
	out.valuesPerS = bestRounds(tput, true, float64(values)/wall.Seconds())
	out.p50ms = bestRounds(p50, false, mean(p50))
	out.p90ms = bestRounds(p90, false, mean(p90))
	out.cpuUs = bestRounds(cpu, false, us(cpuSum)/float64(values))
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	user, sys := cpuTimes()
	return user + sys
}

// memSnap is the slice of runtime.MemStats the window counters need.
type memSnap struct {
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}
