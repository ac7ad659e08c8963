// The instance template: basim, baserve and baload describe a run with the
// same eight flags (protocol, n, t, s, adversary, fault spec, scheme,
// seed). RegisterTemplateFlags declares them once and Resolve turns the
// description into a ready core.Config once, so the simulator, the server
// and the load generator's -verify mode cannot drift apart in how they
// spell or interpret the flags.

package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"byzex/internal/core"
)

// Template is the flag-level description of a per-instance run
// configuration, as accepted by basim, baserve and baload.
type Template struct {
	// Protocol, Adversary, Scheme name the registry entries (see Protocol,
	// Adversary, Scheme); Faults is a faultnet spec string (empty = none).
	Protocol  string
	Adversary string
	Scheme    string
	Faults    string
	// N is the processor count (0 = default 2T+1); T the fault bound; S the
	// set/tree size parameter of alg3/alg5 (0 = default T).
	N, T, S int
	// Seed is the base seed: instance i runs with Seed + i.
	Seed int64
}

// RegisterTemplateFlags declares the eight template flags on fs and returns
// the Template they are parsed into. Only the default protocol differs
// between commands.
func RegisterTemplateFlags(fs *flag.FlagSet, defaultProtocol string) *Template {
	tp := &Template{}
	fs.StringVar(&tp.Protocol, "protocol", defaultProtocol, "protocol: "+strings.Join(ProtocolNames(), "|"))
	fs.IntVar(&tp.N, "n", 0, "number of processors (default 2t+1)")
	fs.IntVar(&tp.T, "t", 2, "fault bound")
	fs.IntVar(&tp.S, "s", 0, "set/tree size parameter for alg3/alg5 (default t)")
	fs.StringVar(&tp.Adversary, "adversary", "none", "adversary: "+strings.Join(AdversaryNames(), "|"))
	fs.StringVar(&tp.Faults, "faults", "", `fault-injection spec applied to every run, e.g. "crash=1@2;drop=0->2@1-3" (see internal/faultnet)`)
	fs.StringVar(&tp.Scheme, "scheme", "hmac", "signature scheme: hmac|ed25519|plain")
	fs.Int64Var(&tp.Seed, "seed", 1, "base seed; served instance i runs with seed+i")
	return tp
}

// Params resolves the numeric defaults (N = 2T+1 when zero; S is defaulted
// by Protocol) into the Params the registry lookups take.
func (tp Template) Params() Params {
	n := tp.N
	if n == 0 {
		n = 2*tp.T + 1
	}
	return Params{N: n, T: tp.T, S: tp.S, Seed: tp.Seed}
}

// Resolve builds the core.Config template. It leaves the faulty set to
// core.Runner.Setup, which counts the processors a fault plan affects as
// faulty next to the adversary's draw; a plan that exceeds the t budget
// still resolves, but warn says what follows.
func (tp Template) Resolve() (cfg core.Config, warn string, err error) {
	params := tp.Params()
	n := params.N
	proto, err := Protocol(tp.Protocol, params)
	if err != nil {
		return core.Config{}, "", err
	}
	adv, err := Adversary(tp.Adversary, params)
	if err != nil {
		return core.Config{}, "", err
	}
	scheme, err := Scheme(tp.Scheme, params)
	if err != nil {
		return core.Config{}, "", err
	}
	plan, err := FaultPlan(tp.Faults, tp.Seed)
	if err != nil {
		return core.Config{}, "", err
	}
	if budgetErr := plan.CheckBudget(n, tp.T); budgetErr != nil {
		warn = budgetErr.Error() + " — instances whose faulty set exceeds t or misses a crash victim are refused, the rest may stall rather than decide"
	}
	return core.Config{
		Protocol: proto, N: n, T: tp.T,
		Scheme: scheme, Adversary: adv, Seed: tp.Seed, Faults: plan,
	}, warn, nil
}

// ResolveWarn is Resolve for a command's entry point: the over-budget
// warning goes to stderr.
func (tp Template) ResolveWarn(stderr io.Writer) (core.Config, error) {
	cfg, warn, err := tp.Resolve()
	if warn != "" {
		fmt.Fprintf(stderr, "warning: %s\n", warn)
	}
	return cfg, err
}
