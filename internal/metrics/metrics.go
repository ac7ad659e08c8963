// Package metrics collects the quantities the paper reasons about: the
// number of messages sent (split by correct vs. faulty senders, since the
// paper's bounds count only messages sent by correct processors), the number
// of signatures those messages carry, the number of phases used, and byte
// volumes for engineering context.
package metrics

import (
	"fmt"
	"slices"
	"strings"

	"byzex/internal/ident"
)

// Collector accumulates counters during a run. It is not safe for concurrent
// use by itself: sim.Engine serializes the sends of processors stepped
// concurrently.
type Collector struct {
	faulty ident.Set

	report Report
}

// Reset zeroes the counters for a run of the given number of sending phases
// that classifies senders against faulty (nil or empty for a fault-free run),
// keeping PerPhase's storage and reserving room for every phase. The zero
// Collector counts every sender as correct.
func (c *Collector) Reset(faulty ident.Set, phases int) {
	*c = Collector{faulty: faulty, report: Report{PerPhase: slices.Grow(c.report.PerPhase[:0], phases+1)}}
}

// OnSend records one message from `from` carrying sigTotal signatures (chain
// links, counted with multiplicity), sigDistinct distinct signer identities,
// and the given payload size in bytes, sent during the given phase.
func (c *Collector) OnSend(phase int, from ident.ProcID, sigTotal, sigDistinct, bytes int) {
	r := &c.report
	r.ensurePhase(phase)
	pp := &r.PerPhase[phase]
	if c.faulty.Has(from) {
		r.MessagesFaulty++
		r.SignaturesFaulty += sigTotal
		pp.MessagesFaulty++
	} else {
		r.MessagesCorrect++
		r.SignaturesCorrect += sigTotal
		r.BytesCorrect += bytes
		r.DistinctSigners += sigDistinct
		pp.MessagesCorrect++
		pp.SignaturesCorrect += sigTotal
	}
	if bytes > r.MaxMessageBytes {
		r.MaxMessageBytes = bytes
	}
	if phase > r.Phases {
		r.Phases = phase
	}
}

// Report returns a snapshot of the accumulated counters.
func (c *Collector) Report() Report {
	out := c.report
	out.PerPhase = append([]PhaseCounters(nil), c.report.PerPhase...)
	return out
}

// PhaseCounters carries per-phase message counts for time-series plots.
type PhaseCounters struct {
	MessagesCorrect   int
	MessagesFaulty    int
	SignaturesCorrect int
}

// Report is the immutable result of a run's accounting.
type Report struct {
	// MessagesCorrect counts messages sent by correct processors — the
	// quantity bounded by Theorems 2, 3, 4, Lemma 1 and Lemma 5.
	MessagesCorrect int
	// MessagesFaulty counts messages sent by faulty processors (reported for
	// context; the paper's bounds do not constrain the adversary's own
	// traffic).
	MessagesFaulty int
	// SignaturesCorrect counts signatures appended to messages sent by
	// correct processors — the quantity bounded by Theorem 1.
	SignaturesCorrect int
	// SignaturesFaulty counts signatures on messages from faulty senders.
	SignaturesFaulty int
	// BytesCorrect is the total payload volume sent by correct processors.
	BytesCorrect int
	// DistinctSigners sums, over messages sent by correct processors, the
	// number of distinct signer identities each message carried — the raw
	// material of Theorem 1's A(p) sets, aggregated.
	DistinctSigners int
	// MaxMessageBytes is the largest single payload observed.
	MaxMessageBytes int
	// Phases is the highest phase during which any message was sent.
	Phases int
	// PerPhase holds counters indexed by phase (index 0 unused).
	PerPhase []PhaseCounters

	// SigCacheHits counts chain links accepted from the run's
	// verified-prefix cache; SigCacheMisses counts links that paid a real
	// cryptographic verification (see sig.CachedVerifier). Their sum is the
	// number of link checks the run requested; hits are the ones the cache
	// made free.
	SigCacheHits int
	// SigCacheMisses counts cryptographically verified chain links.
	SigCacheMisses int
}

func (r *Report) ensurePhase(phase int) {
	for len(r.PerPhase) <= phase {
		r.PerPhase = append(r.PerPhase, PhaseCounters{})
	}
}

// String renders a compact single-line summary.
func (r Report) String() string {
	return fmt.Sprintf("phases=%d msgs(correct)=%d msgs(faulty)=%d sigs(correct)=%d signers=%d bytes=%d maxmsg=%dB sigcache=%d/%d",
		r.Phases, r.MessagesCorrect, r.MessagesFaulty, r.SignaturesCorrect, r.DistinctSigners, r.BytesCorrect, r.MaxMessageBytes,
		r.SigCacheHits, r.SigCacheHits+r.SigCacheMisses)
}

// Table renders the per-phase counters as an aligned text table.
func (r Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %12s %12s\n", "phase", "msgs-correct", "msgs-faulty", "sigs-correct")
	for ph := 1; ph < len(r.PerPhase); ph++ {
		pp := r.PerPhase[ph]
		if pp.MessagesCorrect == 0 && pp.MessagesFaulty == 0 {
			continue
		}
		fmt.Fprintf(&b, "%6d %12d %12d %12d\n", ph, pp.MessagesCorrect, pp.MessagesFaulty, pp.SignaturesCorrect)
	}
	return b.String()
}
