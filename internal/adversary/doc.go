// Package adversary implements Byzantine fault strategies. An Adversary
// chooses which processors to corrupt and supplies the state machines that
// replace them. Faulty processors may collude: every strategy has access to
// the shared State, which pools the signers of all corrupted processors —
// exactly the paper's power ("every message that contains only signatures of
// faulty processors can be produced by them") — but can never sign for a
// correct processor because it never holds a correct processor's signer.
//
// # The strategy registry
//
// The strategies include the constructions used by the paper's lower-bound
// proofs — the split-brain transmitter (SplitBrain, the two-face case of
// MultiFaced) and history-replay adversary (Replay) of Theorem 1, and the
// ignore-first-⌈t/2⌉ starvation behaviour of Theorem 2 (StarveB) — plus
// generic stressors: Garbage (malformed payloads and forged signature
// material) and BitFlipper (replayed traffic with flipped value bits). Each
// sends something a correct processor would not. The omission faults —
// sending nothing from some phase on, or nothing to some receivers — are
// fault-plan crash and drop rules (faultnet.Spec.WithCrash, WithOmission;
// the tools' "silent" and "crash" through cli.Omission); Silent remains only
// for the benchmark ledger. Every strategy is registered by name in
// internal/cli (cli.Adversary), so basim, baserve and the experiment sweeps
// can select any of them from a flag.
//
// # Chaos and the searched strategies
//
// Chaos is the sampling strategy: each corrupted node re-rolls its
// behaviour every phase (correct, silent, selective, replay-seen, garbage)
// from the run's seeded RNG. It asks "does agreement survive arbitrary
// misbehaviour?" — one random point of the strategy space per run, useful
// as a soak test but blind to structure. The adversary *search*
// (internal/search, surfaced as `baattack -search`) is the directed
// complement: it treats the strategies in this package as the genome of an
// optimizer (strategy × parameter × seed × fault plan), evaluates
// candidates by running the protocol on both transmitter values, and
// minimizes the cost of the surviving execution pair against the paper's
// Theorem 1/2 bounds. Chaos answers "does it break?"; the search answers
// "how cheap can a non-breaking adversary make it, and does that ever
// undercut the proved bound?". Replay is the one strategy the search does
// not mutate over: its per-processor schedules are bound to one recorded
// history, so it cannot be instantiated for an arbitrary searched faulty
// set — audit.ReplayAttack remains its scripted home.
package adversary
