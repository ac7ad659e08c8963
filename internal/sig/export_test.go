package sig

// RaceEnabled lets the external tests skip allocation pins the race
// detector's sync.Pool breaks.
const RaceEnabled = raceEnabled
