// Package cli is the one place protocols are declared (the registry: name,
// constructor, canonical conformance size, scheme, class) and the one place
// the tools' shared flags are: the instance template, the serving surface,
// the search surface, and the profile/trace trio of the one-shot tools. It
// also maps adversary and signature-scheme names.
package cli

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg4"
	"byzex/internal/protocols/alg5"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/protocols/ic"
	"byzex/internal/protocols/lsp"
	"byzex/internal/protocols/phaseking"
	"byzex/internal/protocols/strawman"
	"byzex/internal/sig"
)

// ErrBadParams reports numeric parameters outside their valid range.
var ErrBadParams = errors.New("cli: bad parameters")

// Params carries the numeric knobs some constructors need.
type Params struct {
	// N and T are the system size and fault bound.
	N, T int
	// S is the signature-count threshold used by the threshold protocols
	// (alg3, alg5). Zero means "default to T" — the paper's canonical
	// choice — with a floor of 1; negative values are rejected with
	// ErrBadParams.
	S int
	// Seed drives deterministic scheme generation.
	Seed int64
}

// Class tells a judge what a protocol promises, which decides both what a
// run must satisfy and what counts as a violation.
type Class uint8

// Protocol classes.
const (
	// ClassAgreement: full Byzantine Agreement — conditions (i) and (ii)
	// must hold whenever the faults stay within budget.
	ClassAgreement Class = iota
	// ClassExchange: the Algorithm 4 information-exchange building blocks.
	// They decide a constant, so only unanimity of correct processors is
	// judged; the Theorem 1/2 bounds do not apply.
	ClassExchange
	// ClassStrawman: deliberately weakened protocols kept as negative
	// controls. Violations are the expected find, not a bug.
	ClassStrawman
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassAgreement:
		return "agreement"
	case ClassExchange:
		return "exchange"
	default:
		return "strawman"
	}
}

// Verdict is the class's reading of a run's judge (the error of
// core.CheckDecisions): the exchange primitives decide a constant and owe
// unanimity only, so a condition (ii) failure, core.ErrValidity, does not
// count against them. Every other error stands.
func (c Class) Verdict(err error) error {
	if c == ClassExchange && errors.Is(err, core.ErrValidity) {
		return nil
	}
	return err
}

// Entry is one registry row — everything the tools, the conformance suites
// and the search atlas know about a protocol.
type Entry struct {
	// Name is the -protocol value.
	Name string
	// New builds the protocol; p.S arrives resolved (see Protocol).
	New func(p Params) protocol.Protocol
	// N and T are the canonical conformance size: the small system every
	// registry-wide suite (fault-free run, trace attribution, crash drill,
	// search atlas) runs the protocol at.
	N, T int
	// Scheme is the canonical scheme name: "plain" for the unauthenticated
	// protocols, "hmac" for everything else.
	Scheme string
	Class  Class
	// MsgUpper and Phases are the row's promise, each an existing closed
	// form: at most MsgUpper(p) messages from correct processors and exactly
	// Phases(p) phases, p.S resolved as for New. nil promises nothing.
	MsgUpper, Phases func(p Params) int
}

// fixed is the constructor of a protocol that takes no parameters.
func fixed(p protocol.Protocol) func(Params) protocol.Protocol {
	return func(Params) protocol.Protocol { return p }
}

// byT, byNT, byTS and byNTS adapt a closed form to a promise column.
func byT(f func(t int) int) func(Params) int     { return func(p Params) int { return f(p.T) } }
func byNT(f func(n, t int) int) func(Params) int { return func(p Params) int { return f(p.N, p.T) } }
func byTS(f func(t, s int) int) func(Params) int { return func(p Params) int { return f(p.T, p.S) } }
func byNTS(f func(n, t, s int) int) func(Params) int {
	return func(p Params) int { return f(p.N, p.T, p.S) }
}

// registry is the one place a protocol is declared, in name order. Adding a
// protocol is adding a row.
var registry = []Entry{
	{"alg1", fixed(alg1.Protocol{}), 5, 2, "hmac", ClassAgreement, byT(core.Alg1MsgUpperBound), byT(core.Alg1Phases)},
	{"alg1-multi", fixed(alg1.MultiProtocol{}), 5, 2, "hmac", ClassAgreement, byT(alg1.MultiMsgUpperBound), nil},
	{"alg2", fixed(alg2.Protocol{}), 5, 2, "hmac", ClassAgreement, byT(core.Alg2MsgUpperBound), byT(core.Alg2Phases)},
	{"alg3", func(p Params) protocol.Protocol { return alg3.Protocol{S: p.S} }, 12, 2, "hmac", ClassAgreement, byNTS(core.Alg3MsgUpperBound), byTS(core.Alg3Phases)},
	{"alg4", fixed(alg4.Protocol{}), 16, 2, "hmac", ClassExchange, func(p Params) int { return core.Alg4MsgUpperBound(int(math.Sqrt(float64(p.N)))) }, nil},
	{"alg4-relay", fixed(alg4.RelayProtocol{}), 9, 2, "hmac", ClassExchange, byNT(alg4.RelayMsgUpperBound), nil},
	{"alg5", func(p Params) protocol.Protocol { return alg5.Protocol{S: p.S} }, 20, 2, "hmac", ClassAgreement, byNTS(core.Alg5MsgUpperBound), byTS(core.Alg5Phases)},
	{"alg5-nopow", func(p Params) protocol.Protocol { return alg5.Protocol{S: p.S, DisablePoW: true} }, 20, 2, "hmac", ClassAgreement, nil, nil},
	{"dolev-strong", fixed(dolevstrong.Protocol{}), 6, 2, "hmac", ClassAgreement, nil, nil},
	{"ic", fixed(ic.Protocol{Base: dolevstrong.Protocol{}}), 5, 1, "hmac", ClassAgreement, nil, nil},
	{"lsp", fixed(lsp.Protocol{}), 7, 2, "plain", ClassAgreement, nil, nil},
	{"phase-king", fixed(phaseking.Protocol{}), 9, 2, "plain", ClassAgreement, byNT(phaseking.MsgUpperBound), nil},
	{"strawman-broadcast", fixed(strawman.Broadcast{}), 5, 1, "hmac", ClassStrawman, nil, nil},
	{"strawman-thinrelay", func(p Params) protocol.Protocol { return strawman.ThinRelay{RelayWidth: max(1, p.T-1)} }, 8, 2, "hmac", ClassStrawman, nil, nil},
}

// Registry returns the protocol table in name order. The rows are shared:
// callers must not modify them.
func Registry() []Entry { return registry }

// Lookup finds a registry row by name.
func Lookup(name string) (Entry, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("cli: unknown protocol %q (known: %v)", name, ProtocolNames())
}

// Protocol resolves a protocol name. S defaults to T when zero (floor 1);
// negative S is rejected with ErrBadParams.
func Protocol(name string, p Params) (protocol.Protocol, error) {
	if p.S < 0 {
		return nil, fmt.Errorf("%w: S=%d (must be >= 0; 0 means default to T)", ErrBadParams, p.S)
	}
	if p.S == 0 {
		p.S = max(1, p.T)
	}
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.New(p), nil
}

// ProtocolNames lists the recognized protocol names, sorted.
func ProtocolNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// omissions maps the adversary names that are omission faults, not
// strategies, to the phase at whose start their victims crash: silent ones
// never send, crash ones run the protocol for two phases first.
var omissions = map[string]int{"silent": 1, "crash": 3}

// Omission returns spec with name's omission fault, its crash rules, applied
// to faulty; for any other name, spec as given and false.
func Omission(name string, faulty ident.Set, spec faultnet.Spec) (faultnet.Spec, bool) {
	phase, ok := omissions[name]
	if !ok {
		return spec, false
	}
	return spec.WithCrash(faulty, phase), true
}

// Adversary resolves an adversary name for a run whose fault spec is spec. A
// strategy name yields the strategy and spec as given; an omission name
// yields no strategy and spec with the omission applied to the last t
// processors other than the transmitter p0; "none" and "" yield neither.
func Adversary(name string, p Params, spec faultnet.Spec) (adversary.Adversary, faultnet.Spec, error) {
	if spec, ok := Omission(name, adversary.LastNonTransmitter(p.N, p.T, 0), spec); ok {
		return nil, spec, nil
	}
	switch name {
	case "", "none":
		return nil, spec, nil
	case "split-brain":
		return adversary.SplitBrain{LowValue: ident.V0, HighValue: ident.V1, SplitAt: ident.ProcID(p.N / 2)}, spec, nil
	case "multi-faced":
		return adversary.MultiFaced{Values: []ident.Value{0, 1, 2}}, spec, nil
	case "garbage":
		return adversary.Garbage{}, spec, nil
	case "chaos":
		return adversary.Chaos{}, spec, nil
	case "bit-flipper":
		return adversary.BitFlipper{}, spec, nil
	default:
		return nil, spec, fmt.Errorf("cli: unknown adversary %q (known: %v)", name, AdversaryNames())
	}
}

// AdversaryNames lists the recognized adversary names, sorted.
func AdversaryNames() []string {
	names := []string{"none", "silent", "crash", "split-brain", "multi-faced", "garbage", "chaos", "bit-flipper"}
	sort.Strings(names)
	return names
}

// FaultPlan compiles a fault-injection spec string (the faultnet DSL, e.g.
// "crash=1@2;drop=0->2@1-3;delay=3->*@2+1/0.5") into a plan seeded by seed.
// The empty string means no fault injection and yields a nil plan, which every
// faultnet method treats as inert — callers can pass the result straight into
// core.Config.Faults without a nil check of their own.
func FaultPlan(spec string, seed int64) (*faultnet.Plan, error) {
	parsed, err := faultnet.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("cli: fault spec: %w", err)
	}
	plan, err := faultnet.Compile(parsed, seed)
	if err != nil {
		return nil, fmt.Errorf("cli: fault spec: %w", err)
	}
	return plan, nil
}

// Scheme resolves a signature scheme name.
func Scheme(name string, p Params) (sig.Scheme, error) {
	switch name {
	case "", "hmac":
		return sig.NewHMAC(p.N, p.Seed), nil
	case "ed25519":
		return sig.NewEd25519(p.N, nil)
	case "plain":
		return sig.NewPlain(p.N), nil
	default:
		return nil, fmt.Errorf("cli: unknown scheme %q (known: hmac, ed25519, plain)", name)
	}
}
