//go:build !race

package sig

// poisonRewound is off outside race builds: see poison_race.go.
const poisonRewound = false
