//go:build race

package service_test

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// a quarter of what is put back, so allocation pins on paths that use one (the
// pooled core.Runners of RunSim) do not hold under it.
const raceEnabled = true
