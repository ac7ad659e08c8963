package faultnet

import (
	"fmt"
	mrand "math/rand"
	"strconv"
	"strings"

	"byzex/internal/ident"
)

// This file is the search-facing surface of the fault DSL: FormatSpec turns
// a Spec back into the textual form ParseSpec accepts (so a searched plan
// can be archived and replayed byte-identically), and MutateSpec produces a
// structurally valid random neighbor — the fault-plan half of the adversary
// search move set (see internal/search).

// FormatSpec renders a spec in the ParseSpec DSL. The output round-trips:
// ParseSpec(FormatSpec(s)) yields a spec equal to s. An empty spec renders
// as "".
func FormatSpec(s Spec) string {
	parts := make([]string, 0, len(s.Rules))
	for i := range s.Rules {
		parts = append(parts, formatRule(&s.Rules[i]))
	}
	return strings.Join(parts, ";")
}

func formatRule(r *Rule) string {
	switch r.Kind {
	case KCrash:
		return fmt.Sprintf("crash=%d@%d", int(r.Proc), r.AtPhase)
	case KDrop:
		return "drop=" + formatLink(r.From, r.To) + "@" + formatWindow(r.First, r.Last) + formatProb(r.Prob)
	case KDup:
		return "dup=" + formatLink(r.From, r.To) + "@" + formatWindow(r.First, r.Last) + formatProb(r.Prob)
	case KReorder:
		return "reorder=" + formatLink(r.From, r.To) + "@" + formatWindow(r.First, r.Last) + formatProb(r.Prob)
	case KDelay:
		return "delay=" + formatLink(r.From, r.To) + "@" + formatWindow(r.First, r.Last) +
			"+" + strconv.Itoa(r.Delay) + formatProb(r.Prob)
	case KPartition:
		return "partition=" + formatIDs(r.GroupA) + "|" + formatIDs(r.GroupB) + "@" + formatWindow(r.First, r.Last)
	default:
		return fmt.Sprintf("?kind=%d", r.Kind)
	}
}

func formatLink(from, to ident.ProcID) string {
	return formatProcWild(from) + "->" + formatProcWild(to)
}

func formatProcWild(p ident.ProcID) string {
	if p == ident.None {
		return "*"
	}
	return strconv.Itoa(int(p))
}

func formatWindow(first, last int) string {
	switch {
	case first == 1 && last == maxPhase:
		return "*"
	case first == last:
		return strconv.Itoa(first)
	default:
		return strconv.Itoa(first) + "-" + strconv.Itoa(last)
	}
}

func formatProb(p float64) string {
	if p == 1 || p == 0 {
		return ""
	}
	return "/" + strconv.FormatFloat(p, 'g', -1, 64)
}

func formatIDs(s ident.Set) string {
	ids := s.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(int(id))
	}
	return strings.Join(parts, ",")
}

// probSteps is the discrete probability grid mutation draws from; a small
// grid keeps the searched space enumerable and the DSL rendering exact.
var probSteps = []float64{0.25, 0.5, 0.75, 1}

// MutateSpec returns a random structurally-valid neighbor of spec for a
// system of n processors whose protocol sends through phase `phases`. The
// receiver spec is not modified. Moves: append a fresh rule, delete a rule,
// or tweak one rule's window, probability, link or delay. Every result
// passes Compile's validation (crash phases >= 1, windows well-formed,
// probabilities in (0,1], no self-links, no duplicate crash of one
// processor); budget admissibility is the caller's concern via Affected /
// CheckBudget.
func MutateSpec(spec Spec, rng *mrand.Rand, n, phases int) Spec {
	if n < 2 {
		return cloneSpec(spec)
	}
	if phases < 1 {
		phases = 1
	}
	out := cloneSpec(spec)
	switch {
	case len(out.Rules) == 0 || rng.Intn(3) == 0:
		out.Rules = append(out.Rules, randomRule(rng, n, phases, crashedProcs(out)))
	case rng.Intn(3) == 0:
		i := rng.Intn(len(out.Rules))
		out.Rules = append(out.Rules[:i], out.Rules[i+1:]...)
		if len(out.Rules) == 0 {
			out.Rules = nil
		}
	default:
		tweakRule(&out.Rules[rng.Intn(len(out.Rules))], rng, n, phases)
	}
	return out
}

func cloneSpec(spec Spec) Spec {
	if len(spec.Rules) == 0 {
		return Spec{}
	}
	out := Spec{Rules: make([]Rule, len(spec.Rules))}
	copy(out.Rules, spec.Rules)
	for i := range out.Rules {
		out.Rules[i].GroupA = out.Rules[i].GroupA.Clone()
		out.Rules[i].GroupB = out.Rules[i].GroupB.Clone()
	}
	return out
}

func crashedProcs(spec Spec) ident.Set {
	var out ident.Set
	for i := range spec.Rules {
		if spec.Rules[i].Kind == KCrash {
			out.Add(spec.Rules[i].Proc)
		}
	}
	return out
}

// randomRule draws a fresh rule. Crash rules avoid processors already
// crashed by the spec (Compile rejects double-crash) and avoid processor 0,
// the conventional transmitter, so random moves do not waste evaluations on
// trivially infeasible plans.
func randomRule(rng *mrand.Rand, n, phases int, crashed ident.Set) Rule {
	first := 1 + rng.Intn(phases)
	last := first + rng.Intn(phases-first+1)
	prob := probSteps[rng.Intn(len(probSteps))]
	switch rng.Intn(5) {
	case 0:
		// Crash a random non-transmitter processor that is still up.
		for range n {
			p := ident.ProcID(1 + rng.Intn(n-1))
			if !crashed.Has(p) {
				return Rule{Kind: KCrash, Proc: p, AtPhase: first}
			}
		}
		// Everyone already crashes somewhere; degrade to a drop rule.
		fallthrough
	case 1:
		from, to := randomLink(rng, n)
		return Rule{Kind: KDrop, From: from, To: to, First: first, Last: last, Prob: prob}
	case 2:
		from, to := randomLink(rng, n)
		return Rule{Kind: KDelay, From: from, To: to, First: first, Last: last, Prob: prob, Delay: 1 + rng.Intn(2)}
	case 3:
		from, to := randomLink(rng, n)
		return Rule{Kind: KDup, From: from, To: to, First: first, Last: last, Prob: prob}
	default:
		from, to := randomLink(rng, n)
		return Rule{Kind: KReorder, From: from, To: to, First: first, Last: last, Prob: prob}
	}
}

// randomLink draws (from, to), never a self-link (Compile rejects those).
// From is almost always a concrete processor: Plan.Affected attributes a
// directed rule to its sender, and a wildcard sender marks all n processors
// affected — instantly over any useful fault budget, so such rules would
// only waste search evaluations.
func randomLink(rng *mrand.Rand, n int) (from, to ident.ProcID) {
	from, to = ident.ProcID(rng.Intn(n)), ident.None
	if rng.Intn(8) == 0 {
		from = ident.None
	}
	if rng.Intn(2) == 0 {
		to = ident.ProcID(rng.Intn(n))
	}
	if from != ident.None && from == to {
		to = ident.ProcID((int(to) + 1) % n)
	}
	return from, to
}

func tweakRule(r *Rule, rng *mrand.Rand, n, phases int) {
	if r.Kind == KCrash {
		r.AtPhase = 1 + rng.Intn(phases)
		return
	}
	switch rng.Intn(3) {
	case 0: // move the window
		r.First = 1 + rng.Intn(phases)
		r.Last = r.First + rng.Intn(phases-r.First+1)
	case 1: // re-draw the probability
		r.Prob = probSteps[rng.Intn(len(probSteps))]
	default: // re-draw the link (partitions have no link; re-window instead)
		if r.Kind == KPartition {
			r.First = 1 + rng.Intn(phases)
			r.Last = r.First + rng.Intn(phases-r.First+1)
			return
		}
		r.From, r.To = randomLink(rng, n)
		if r.Kind == KDelay {
			r.Delay = 1 + rng.Intn(2)
		}
	}
}
