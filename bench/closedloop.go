package main

import (
	"math/rand"
	"sync"
	"time"

	"byzex/internal/ident"
)

// closedLoop drives a fixed number of callers that each wait for their reply
// before sending the next value — the two closed-loop workloads (wire-small's
// connections, mesh-delay's submitters) share it. The caller count never
// exceeds the machine's processors, so the load generator does not compete
// with itself.
type closedLoop struct {
	callers int
	rngs    []*rand.Rand // one value stream per caller, from the run seed
	// keepLat makes every round keep its raw latencies; only the traced run
	// sets it, for the whole-window p99.
	keepLat bool

	mu     sync.Mutex
	sample *reservoir
}

func newClosedLoop(callers int, seed int64) *closedLoop {
	cl := &closedLoop{callers: callers, sample: newReservoir(seed)}
	for c := 0; c < callers; c++ {
		cl.rngs = append(cl.rngs, rand.New(rand.NewSource(seed*7919+int64(c))))
	}
	return cl
}

// submitFunc sends one value from caller c and reports the instance that
// served it and the submit-to-ack time. It returns an error when the value
// was refused, not committed, or decided wrongly.
type submitFunc func(c int, v ident.Value) (o observed, lat time.Duration, err error)

// round runs ops submissions of binary values split evenly over the callers
// and returns the round's reading; failed operations are counted into res.
func (cl *closedLoop) round(ops int, res *result, submit submitFunc) round {
	per := ops / cl.callers
	lats := make([][]time.Duration, cl.callers)
	errs := make([]error, cl.callers)
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < cl.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				o, d, err := submit(c, ident.Value(cl.rngs[c].Intn(2)))
				if err != nil {
					errs[c] = err
					if i-len(lat) >= 16 {
						break // a dead connection fails every later op too
					}
					continue
				}
				lat = append(lat, d)
				cl.mu.Lock()
				cl.sample.add(o)
				cl.mu.Unlock()
			}
			lats[c] = lat
		}(c)
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	var all []time.Duration
	for c := range lats {
		all = append(all, lats[c]...)
		res.fail(per-len(lats[c]), "caller %d: %v", c, errs[c])
	}
	res.attempted += per * cl.callers
	p50, p90, _ := durQuantiles(all)
	r := round{values: len(all), wall: wall, cpu: cpu, p50: p50, p90: p90}
	if cl.keepLat {
		r.lat = all
	}
	return r
}

// runRounds keeps starting rounds until the window has passed and at least
// minRounds have run.
func runRounds(window time.Duration, minRounds int, one func() round) []round {
	var rs []round
	deadline := time.Now().Add(window)
	for len(rs) < minRounds || time.Now().Before(deadline) {
		rs = append(rs, one())
	}
	return rs
}
