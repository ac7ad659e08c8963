package cli

import "flag"

// SearchFlags is the adversary-search flag surface shared by the commands
// that run the optimizer (today cmd/baattack; tests and future tools reuse
// it so the knobs stay in one place, mirroring RegisterServeFlags).
type SearchFlags struct {
	// Search toggles search mode.
	Search *bool
	// Objective is "sigs", "msgs" or "both" (see search.ParseObjective).
	Objective *string
	// Budget is the candidate-evaluation budget per protocol × objective.
	Budget *int
	// Parallel sizes the evaluation worker pool (0 = GOMAXPROCS). The
	// result is independent of this value — it only changes wall-clock.
	Parallel *int
}

// RegisterSearchFlags declares the adversary-search surface on fs and
// returns the bound values.
func RegisterSearchFlags(fs *flag.FlagSet) *SearchFlags {
	sf := &SearchFlags{}
	sf.Search = fs.Bool("search", false, "run the adversary search (minimize cost vs the Theorem 1/2 bounds) instead of a single attack")
	sf.Objective = fs.String("objective", "both", "search objective: sigs|msgs|both")
	sf.Budget = fs.Int("budget", 240, "search: candidate evaluations per protocol x objective (each is two runs)")
	sf.Parallel = fs.Int("parallel", 0, "search: evaluation workers (0 = GOMAXPROCS); does not change results, only wall-clock")
	return sf
}
