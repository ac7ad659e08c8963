//go:build race

package transport

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// a quarter of what is put back, so allocation pins on paths that use one (the
// frame-body and signer-arena pools) do not hold under it.
const raceEnabled = true
