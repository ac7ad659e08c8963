//go:build race

package sig

// raceEnabled reports that the race detector is on. It makes sync.Pool drop
// a quarter of what is put back, so allocation pins that count on the pooled
// signing-input writer do not hold under it.
const raceEnabled = true
