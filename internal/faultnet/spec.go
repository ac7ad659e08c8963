package faultnet

import (
	"fmt"
	"strconv"
	"strings"

	"byzex/internal/ident"
)

// ParseSpec parses the textual scenario language used by the -faults flags:
// semicolon-separated directives, each one rule, evaluated in order (first
// match wins per frame).
//
//	crash=<proc>@<phase>                 halt proc at the start of phase
//	drop=<link>@<window>[/<prob>]        discard matching frames
//	delay=<link>@<window>+<d>[/<prob>]   hold content for d phases
//	dup=<link>@<window>[/<prob>]         deliver matching frames twice
//	reorder=<link>@<window>[/<prob>]     reverse messages within the frame
//	partition=<ids>|<ids>@<window>       cut all links between the groups
//
//	<link>   = <proc|*> -> <proc|*>      sender -> receiver, * = any
//	<window> = * | <phase> | <a>-<b>     inclusive sending-phase range
//	<prob>   = (0,1]                     per-frame firing probability
//	<ids>    = <proc>[,<proc>...]
//
// Example: "crash=1@3;drop=2->4@2-5/0.5;partition=0,1|5,6@2".
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, rest, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("%w: directive %q has no '='", ErrBadSpec, part)
		}
		var (
			rule Rule
			err  error
		)
		switch key {
		case "crash":
			rule, err = parseCrash(rest)
		case "drop", "dup", "reorder":
			rule, err = parseDirected(key, rest)
		case "delay":
			rule, err = parseDelay(rest)
		case "partition":
			rule, err = parsePartition(rest)
		default:
			err = fmt.Errorf("%w: unknown directive %q", ErrBadSpec, key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("%s: %w", part, err)
		}
		spec.Rules = append(spec.Rules, rule)
	}
	return spec, nil
}

func parseCrash(rest string) (Rule, error) {
	procStr, phaseStr, ok := strings.Cut(rest, "@")
	if !ok {
		return Rule{}, fmt.Errorf("%w: crash needs <proc>@<phase>", ErrBadSpec)
	}
	proc, err := parseProc(procStr)
	if err != nil || proc == ident.None {
		return Rule{}, fmt.Errorf("%w: crash processor %q", ErrBadSpec, procStr)
	}
	phase, err := strconv.Atoi(strings.TrimSpace(phaseStr))
	if err != nil {
		return Rule{}, fmt.Errorf("%w: crash phase %q", ErrBadSpec, phaseStr)
	}
	return Rule{Kind: KCrash, Proc: proc, AtPhase: phase}, nil
}

func parseDirected(key, rest string) (Rule, error) {
	kind := map[string]Kind{"drop": KDrop, "dup": KDup, "reorder": KReorder}[key]
	linkStr, winStr, ok := strings.Cut(rest, "@")
	if !ok {
		return Rule{}, fmt.Errorf("%w: %s needs <link>@<window>", ErrBadSpec, key)
	}
	rule := Rule{Kind: kind}
	var err error
	if rule.From, rule.To, err = parseLink(linkStr); err != nil {
		return Rule{}, err
	}
	if rule.First, rule.Last, rule.Prob, err = parseWindowProb(winStr); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func parseDelay(rest string) (Rule, error) {
	linkStr, winStr, ok := strings.Cut(rest, "@")
	if !ok {
		return Rule{}, fmt.Errorf("%w: delay needs <link>@<window>+<d>", ErrBadSpec)
	}
	winStr, probStr := splitProb(winStr)
	winStr, dStr, ok := strings.Cut(winStr, "+")
	if !ok {
		return Rule{}, fmt.Errorf("%w: delay needs +<phases>", ErrBadSpec)
	}
	rule := Rule{Kind: KDelay}
	var err error
	if rule.From, rule.To, err = parseLink(linkStr); err != nil {
		return Rule{}, err
	}
	if rule.First, rule.Last, err = parseWindow(winStr); err != nil {
		return Rule{}, err
	}
	if rule.Delay, err = strconv.Atoi(strings.TrimSpace(dStr)); err != nil {
		return Rule{}, fmt.Errorf("%w: delay amount %q", ErrBadSpec, dStr)
	}
	if rule.Prob, err = parseProb(probStr); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func parsePartition(rest string) (Rule, error) {
	groupsStr, winStr, ok := strings.Cut(rest, "@")
	if !ok {
		return Rule{}, fmt.Errorf("%w: partition needs <ids>|<ids>@<window>", ErrBadSpec)
	}
	aStr, bStr, ok := strings.Cut(groupsStr, "|")
	if !ok {
		return Rule{}, fmt.Errorf("%w: partition needs two '|'-separated groups", ErrBadSpec)
	}
	rule := Rule{Kind: KPartition, Prob: 1}
	var err error
	if rule.GroupA, err = parseIDs(aStr); err != nil {
		return Rule{}, err
	}
	if rule.GroupB, err = parseIDs(bStr); err != nil {
		return Rule{}, err
	}
	if rule.First, rule.Last, err = parseWindow(winStr); err != nil {
		return Rule{}, err
	}
	return rule, nil
}

func parseLink(s string) (from, to ident.ProcID, err error) {
	fromStr, toStr, ok := strings.Cut(s, "->")
	if !ok {
		return 0, 0, fmt.Errorf("%w: link %q needs <from>-><to>", ErrBadSpec, s)
	}
	if from, err = parseProc(fromStr); err != nil {
		return 0, 0, err
	}
	if to, err = parseProc(toStr); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

func parseProc(s string) (ident.ProcID, error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return ident.None, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%w: processor %q", ErrBadSpec, s)
	}
	return ident.ProcID(v), nil
}

func parseIDs(s string) (ident.Set, error) {
	var out ident.Set
	for _, f := range strings.Split(s, ",") {
		id, err := parseProc(f)
		if err != nil || id == ident.None {
			return ident.Set{}, fmt.Errorf("%w: group member %q", ErrBadSpec, f)
		}
		out.Add(id)
	}
	return out, nil
}

// splitProb splits a trailing "/<prob>" off a window expression.
func splitProb(s string) (window, prob string) {
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

func parseProb(s string) (float64, error) {
	if s == "" {
		return 1, nil
	}
	p, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: probability %q", ErrBadSpec, s)
	}
	return p, nil
}

func parseWindowProb(s string) (first, last int, prob float64, err error) {
	winStr, probStr := splitProb(s)
	if first, last, err = parseWindow(winStr); err != nil {
		return 0, 0, 0, err
	}
	if prob, err = parseProb(probStr); err != nil {
		return 0, 0, 0, err
	}
	return first, last, prob, nil
}

func parseWindow(s string) (first, last int, err error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return 1, maxPhase, nil
	}
	if a, b, ok := strings.Cut(s, "-"); ok {
		first, err = strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return 0, 0, fmt.Errorf("%w: phase %q", ErrBadSpec, a)
		}
		last, err = strconv.Atoi(strings.TrimSpace(b))
		if err != nil {
			return 0, 0, fmt.Errorf("%w: phase %q", ErrBadSpec, b)
		}
		return first, last, nil
	}
	first, err = strconv.Atoi(s)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: phase window %q", ErrBadSpec, s)
	}
	return first, first, nil
}
