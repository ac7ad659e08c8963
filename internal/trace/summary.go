package trace

import (
	"fmt"
	"strings"

	"byzex/internal/metrics"
)

// PhaseSummary aggregates one phase's events.
type PhaseSummary struct {
	// MessagesCorrect / MessagesFaulty count sends by sender class, keyed
	// by the sending phase — the same attribution metrics.Report uses.
	MessagesCorrect int
	MessagesFaulty  int
	// SignaturesCorrect / SignaturesFaulty count signature links (with
	// multiplicity) on those sends.
	SignaturesCorrect int
	SignaturesFaulty  int
	// DistinctSigners sums the distinct-signer counts of correct sends.
	DistinctSigners int
	// BytesCorrect is the payload volume of correct sends.
	BytesCorrect int
	// Delivered counts envelopes handed to Step during this phase.
	Delivered int
	// Omitted counts sends suppressed by adversary send filters.
	Omitted int
	// Rushed counts envelopes peeked by rushing adversaries this phase.
	Rushed int
}

// Summary is the aggregate view of a trace: the per-phase attribution table
// plus run-wide counters.
type Summary struct {
	// PerPhase is indexed by phase; index 0 collects phase-less events.
	PerPhase []PhaseSummary
	// Events is the total number of events summarized.
	Events int
	// VerifyHits / VerifyMisses total the signature-cache events.
	VerifyHits   int
	VerifyMisses int
	// Corrupted counts KindCorrupt events (the faulty set size).
	Corrupted int
	// Decided / Undecided count the decision events.
	Decided   int
	Undecided int
	// Serving-layer counters (see the service event kinds in trace.go).
	// Enqueued / Rejected count admissions into and rejections from a
	// service's bounded queue; InstancesStarted / InstancesDone count
	// dispatched and completed agreement instances; ValuesDecided sums the
	// batch sizes of completed instances (the amortization denominator).
	Enqueued         int
	Rejected         int
	InstancesStarted int
	InstancesDone    int
	ValuesDecided    int
	// Replayed counts journaled admissions re-submitted during crash
	// recovery (KindReplay); Checkpoints counts journal checkpoints written
	// on drain (KindCheckpoint).
	Replayed    int
	Checkpoints int
	// Fault-injection counters (see the fault-* event kinds in trace.go):
	// frames dropped, delayed, duplicated and reordered by the plan, and
	// processors halted by crash-at-phase-k rules. The scenario tests
	// assert these equal faultnet.Plan.ExpectedCounters for the run.
	FaultDrops    int
	FaultDelays   int
	FaultDups     int
	FaultReorders int
	FaultCrashes  int
	// Adversary-search counters (see the search-* event kinds in trace.go):
	// candidate evaluations, incumbent improvements, and candidates that
	// broke an agreement condition. SearchBestCost is the cost carried by
	// the last KindSearchBest event — the best-found objective value.
	SearchEvals      int
	SearchBests      int
	SearchViolations int
	SearchBestCost   int
}

// Summarize folds a stream of events into a Summary.
func Summarize(events []Event) *Summary {
	s := &Summary{}
	for _, e := range events {
		s.Add(e)
	}
	return s
}

// Add folds one event into the summary — the incremental form of Summarize,
// used by live aggregators (Spool) that cannot afford to retain the event
// stream. Summarize(events) is exactly a fresh Summary with every event
// Added in order.
func (s *Summary) Add(e Event) {
	s.Events++
	ph := e.Phase
	if ph < 0 {
		ph = 0
	}
	for len(s.PerPhase) <= ph {
		s.PerPhase = append(s.PerPhase, PhaseSummary{})
	}
	pp := &s.PerPhase[ph]
	switch e.Kind {
	case KindSend:
		if e.Flag {
			pp.MessagesFaulty++
			pp.SignaturesFaulty += e.Sigs
		} else {
			pp.MessagesCorrect++
			pp.SignaturesCorrect += e.Sigs
			pp.DistinctSigners += e.Signers
			pp.BytesCorrect += e.Bytes
		}
	case KindOmit:
		pp.Omitted++
	case KindDeliver:
		pp.Delivered++
	case KindRush:
		pp.Rushed += e.Sigs
	case KindVerifyHit:
		s.VerifyHits += e.Sigs
	case KindVerifyMiss:
		s.VerifyMisses += e.Sigs
	case KindCorrupt:
		s.Corrupted++
	case KindDecide:
		if e.Flag {
			s.Decided++
		} else {
			s.Undecided++
		}
	case KindEnqueue:
		s.Enqueued++
	case KindReject:
		s.Rejected++
	case KindInstanceStart:
		s.InstancesStarted++
	case KindInstanceDone:
		s.InstancesDone++
		s.ValuesDecided += e.Sigs
	case KindFaultDrop:
		s.FaultDrops++
	case KindFaultDelay:
		s.FaultDelays++
	case KindFaultDup:
		s.FaultDups++
	case KindFaultReorder:
		s.FaultReorders++
	case KindFaultCrash:
		s.FaultCrashes++
	case KindReplay:
		s.Replayed++
	case KindCheckpoint:
		s.Checkpoints++
	case KindSearchEval:
		s.SearchEvals++
	case KindSearchBest:
		s.SearchBests++
		s.SearchBestCost = e.Sigs
	case KindSearchViolation:
		s.SearchViolations++
	}
}

// Totals sums the per-phase counters.
func (s *Summary) Totals() PhaseSummary {
	var out PhaseSummary
	for _, pp := range s.PerPhase {
		out.MessagesCorrect += pp.MessagesCorrect
		out.MessagesFaulty += pp.MessagesFaulty
		out.SignaturesCorrect += pp.SignaturesCorrect
		out.SignaturesFaulty += pp.SignaturesFaulty
		out.DistinctSigners += pp.DistinctSigners
		out.BytesCorrect += pp.BytesCorrect
		out.Delivered += pp.Delivered
		out.Omitted += pp.Omitted
		out.Rushed += pp.Rushed
	}
	return out
}

// Table renders the per-phase message/signature attribution table.
func (s *Summary) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s %10s %9s %7s\n",
		"phase", "msgs-correct", "msgs-faulty", "sigs-correct", "bytes-corr", "delivered", "omitted", "rushed")
	for ph := 1; ph < len(s.PerPhase); ph++ {
		pp := s.PerPhase[ph]
		if pp == (PhaseSummary{}) {
			continue
		}
		fmt.Fprintf(&b, "%6d %12d %12d %12d %12d %10d %9d %7d\n",
			ph, pp.MessagesCorrect, pp.MessagesFaulty, pp.SignaturesCorrect,
			pp.BytesCorrect, pp.Delivered, pp.Omitted, pp.Rushed)
	}
	tot := s.Totals()
	fmt.Fprintf(&b, "%6s %12d %12d %12d %12d %10d %9d %7d\n",
		"total", tot.MessagesCorrect, tot.MessagesFaulty, tot.SignaturesCorrect,
		tot.BytesCorrect, tot.Delivered, tot.Omitted, tot.Rushed)
	fmt.Fprintf(&b, "corrupted=%d decided=%d undecided=%d sigcache=%d/%d\n",
		s.Corrupted, s.Decided, s.Undecided, s.VerifyHits, s.VerifyHits+s.VerifyMisses)
	if s.Enqueued+s.Rejected+s.InstancesStarted+s.InstancesDone > 0 {
		fmt.Fprintf(&b, "service: enqueued=%d rejected=%d instances=%d/%d values=%d\n",
			s.Enqueued, s.Rejected, s.InstancesDone, s.InstancesStarted, s.ValuesDecided)
	}
	if s.FaultDrops+s.FaultDelays+s.FaultDups+s.FaultReorders+s.FaultCrashes > 0 {
		fmt.Fprintf(&b, "faults: drops=%d delays=%d dups=%d reorders=%d crashes=%d\n",
			s.FaultDrops, s.FaultDelays, s.FaultDups, s.FaultReorders, s.FaultCrashes)
	}
	if s.Replayed+s.Checkpoints > 0 {
		fmt.Fprintf(&b, "journal: replayed=%d checkpoints=%d\n", s.Replayed, s.Checkpoints)
	}
	if s.SearchEvals > 0 {
		fmt.Fprintf(&b, "search: evals=%d improvements=%d violations=%d best=%d\n",
			s.SearchEvals, s.SearchBests, s.SearchViolations, s.SearchBestCost)
	}
	return b.String()
}

// CheckReport verifies that the trace's send attribution agrees with the
// metrics collected during the same run: per-phase message and signature
// counters, run totals, byte volume and distinct-signer totals must all
// match. A mismatch means the trace wiring and the metrics wiring diverged —
// the invariant the trace-smoke target and the conformance tests pin down.
func (s *Summary) CheckReport(r metrics.Report) error {
	phases := len(s.PerPhase)
	if len(r.PerPhase) > phases {
		phases = len(r.PerPhase)
	}
	for ph := 1; ph < phases; ph++ {
		var tp PhaseSummary
		if ph < len(s.PerPhase) {
			tp = s.PerPhase[ph]
		}
		var rp metrics.PhaseCounters
		if ph < len(r.PerPhase) {
			rp = r.PerPhase[ph]
		}
		if tp.MessagesCorrect != rp.MessagesCorrect {
			return fmt.Errorf("trace: phase %d msgs-correct %d != report %d", ph, tp.MessagesCorrect, rp.MessagesCorrect)
		}
		if tp.MessagesFaulty != rp.MessagesFaulty {
			return fmt.Errorf("trace: phase %d msgs-faulty %d != report %d", ph, tp.MessagesFaulty, rp.MessagesFaulty)
		}
		if tp.SignaturesCorrect != rp.SignaturesCorrect {
			return fmt.Errorf("trace: phase %d sigs-correct %d != report %d", ph, tp.SignaturesCorrect, rp.SignaturesCorrect)
		}
	}
	tot := s.Totals()
	switch {
	case tot.MessagesCorrect != r.MessagesCorrect:
		return fmt.Errorf("trace: total msgs-correct %d != report %d", tot.MessagesCorrect, r.MessagesCorrect)
	case tot.MessagesFaulty != r.MessagesFaulty:
		return fmt.Errorf("trace: total msgs-faulty %d != report %d", tot.MessagesFaulty, r.MessagesFaulty)
	case tot.SignaturesCorrect != r.SignaturesCorrect:
		return fmt.Errorf("trace: total sigs-correct %d != report %d", tot.SignaturesCorrect, r.SignaturesCorrect)
	case tot.SignaturesFaulty != r.SignaturesFaulty:
		return fmt.Errorf("trace: total sigs-faulty %d != report %d", tot.SignaturesFaulty, r.SignaturesFaulty)
	case tot.BytesCorrect != r.BytesCorrect:
		return fmt.Errorf("trace: total bytes-correct %d != report %d", tot.BytesCorrect, r.BytesCorrect)
	case tot.DistinctSigners != r.DistinctSigners:
		return fmt.Errorf("trace: total distinct-signers %d != report %d", tot.DistinctSigners, r.DistinctSigners)
	}
	return nil
}
