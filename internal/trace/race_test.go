//go:build race

package trace_test

// raceEnabled reports that the race detector is on. It makes sync.Pool drop
// a quarter of what is put back, at random, so two runs of one configuration
// no longer allocate the same number of objects.
const raceEnabled = true
