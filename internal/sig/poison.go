//go:build !race

package sig

// Poison is off outside race builds: see poison_race.go.
const Poison = false
