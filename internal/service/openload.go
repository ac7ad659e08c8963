package service

import (
	"math/rand"
	"time"
)

// The open loop's arrivals. A closed loop (RunLoad with Rate 0) submits,
// waits, submits again on each connection, so offered load collapses to
// whatever the server sustains and latency numbers hide overload entirely.
// An open loop models a population of independent users: arrivals follow a
// Poisson process at a fixed rate whether or not earlier requests have
// completed, and each request's latency is measured from its *scheduled*
// arrival — a request that waited behind a backed-up connection pool pays
// that wait. This is the coordinated-omission-free measurement an SLO gate
// needs: under overload, p99 explodes instead of quietly disappearing.

// PoissonSchedule returns the arrival offsets (from the run's start) of a
// Poisson process with the given rate (arrivals per second) over the given
// duration. It is a pure function of its arguments: a fixed seed reproduces
// the schedule exactly, which makes open-loop runs replayable — the
// determinism contract the baload tests pin.
func PoissonSchedule(seed int64, rate float64, duration time.Duration) []time.Duration {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	at := time.Duration(0)
	for {
		// Inter-arrival gaps of a Poisson process are exponential with mean
		// 1/rate.
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= duration {
			return out
		}
		out = append(out, at)
	}
}
