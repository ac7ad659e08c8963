package cli_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
)

// TestEveryProtocolNameResolvesAndRuns is the registry's own test: the
// table is in strict name order (so names are unique and ProtocolNames is
// sorted), and every row's constructor accepts the row's canonical size and
// runs fault-free, under the row's scheme, to the outcome its class promises
// and within the row's MsgUpper and Phases promise.
func TestEveryProtocolNameResolvesAndRuns(t *testing.T) {
	names := cli.ProtocolNames()
	if len(names) != len(cli.Registry()) {
		t.Fatalf("ProtocolNames has %d names, the registry %d rows", len(names), len(cli.Registry()))
	}
	for i, e := range cli.Registry() {
		if names[i] != e.Name {
			t.Fatalf("ProtocolNames()[%d] = %q, registry row is %q", i, names[i], e.Name)
		}
		if i > 0 && names[i-1] >= e.Name {
			t.Fatalf("registry rows %q, %q are not in strict name order", names[i-1], e.Name)
		}
		// S is spelled out at its default, so the promise sees what New saw.
		params := cli.Params{N: e.N, T: e.T, S: max(1, e.T), Seed: 1}
		proto, err := cli.Protocol(e.Name, params)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if err := proto.Check(e.N, e.T); err != nil {
			t.Fatalf("%s rejects its canonical size n=%d t=%d: %v", e.Name, e.N, e.T, err)
		}
		scheme, err := cli.Scheme(e.Scheme, params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(context.Background(), core.Config{
			Protocol: proto, N: e.N, T: e.T, Value: ident.V1, Scheme: scheme,
		})
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		// Fault-free, agreement protocols and strawmen alike decide the
		// transmitter's value; the exchange primitives decide a constant, so
		// they owe unanimity only.
		decided, err := res.Decision(0, ident.V1)
		if e.Class == cli.ClassExchange && errors.Is(err, core.ErrValidity) {
			err = nil
		} else if err == nil && decided != ident.V1 {
			err = fmt.Errorf("decided %v, want %v", decided, ident.V1)
		}
		if err != nil {
			t.Errorf("%s (%s): %v", e.Name, e.Class, err)
		}
		if e.MsgUpper != nil {
			if got, bound := res.Sim.Report.MessagesCorrect, e.MsgUpper(params); got > bound {
				t.Errorf("%s n=%d t=%d: %d messages from correct processors, row promises ≤ %d", e.Name, e.N, e.T, got, bound)
			}
		}
		if e.Phases != nil {
			if got, want := proto.Phases(e.N, e.T), e.Phases(params); got != want {
				t.Errorf("%s n=%d t=%d: Phases = %d, row promises %d", e.Name, e.N, e.T, got, want)
			}
		}
	}
}

func TestSParameterDefaulting(t *testing.T) {
	cases := []struct {
		name    string
		params  cli.Params
		wantS   int
		wantErr bool
	}{
		{"zero-defaults-to-T", cli.Params{N: 12, T: 4, S: 0}, 4, false},
		{"zero-with-zero-T-floors-to-1", cli.Params{N: 5, T: 0, S: 0}, 1, false},
		{"explicit-wins", cli.Params{N: 12, T: 4, S: 7}, 7, false},
		{"explicit-one", cli.Params{N: 12, T: 4, S: 1}, 1, false},
		{"negative-rejected", cli.Params{N: 12, T: 4, S: -1}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proto, err := cli.Protocol("alg3", tc.params)
			if tc.wantErr {
				if !errors.Is(err, cli.ErrBadParams) {
					t.Fatalf("err = %v, want ErrBadParams", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := proto.(alg3.Protocol).S; got != tc.wantS {
				t.Fatalf("resolved S = %d, want %d", got, tc.wantS)
			}
			// The same resolution must apply to alg5.
			p5, err := cli.Protocol("alg5", tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if got := p5.(alg5.Protocol).S; got != tc.wantS {
				t.Fatalf("alg5 resolved S = %d, want %d", got, tc.wantS)
			}
		})
	}
}

func TestEveryAdversaryNameResolves(t *testing.T) {
	for _, name := range cli.AdversaryNames() {
		adv, err := cli.Adversary(name, cli.Params{N: 9, T: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "none" && adv != nil {
			t.Fatal("none resolved to a real adversary")
		}
		if name != "none" && adv == nil {
			t.Fatalf("%s resolved to nil", name)
		}
	}
	if _, err := cli.Adversary("bogus", cli.Params{}); err == nil {
		t.Fatal("bogus adversary accepted")
	}
}

func TestUnknownNamesRejected(t *testing.T) {
	if _, err := cli.Protocol("bogus", cli.Params{}); err == nil {
		t.Fatal("bogus protocol accepted")
	}
	if _, err := cli.Scheme("bogus", cli.Params{N: 2}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestFaultPlan(t *testing.T) {
	plan, err := cli.FaultPlan("crash=1@2;drop=0->2@1-3", 7)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Empty() {
		t.Fatal("non-empty spec compiled to an inert plan")
	}
	if got := plan.CrashPhase(1); got != 2 {
		t.Fatalf("crash phase %d, want 2", got)
	}

	// The empty spec is "no injection": a nil plan, usable as-is.
	plan, err = cli.FaultPlan("", 7)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Fatalf("empty spec yielded %v, want nil", plan)
	}
	if !plan.Empty() || plan.CrashPhase(1) != 0 {
		t.Fatal("nil plan is not inert")
	}

	if _, err := cli.FaultPlan("drop=1->1@2", 7); err == nil {
		t.Fatal("self-link spec accepted")
	}
	if _, err := cli.FaultPlan("explode=all", 7); err == nil {
		t.Fatal("unknown directive accepted")
	}
}

func TestSchemeDefaults(t *testing.T) {
	s, err := cli.Scheme("", cli.Params{N: 4, Seed: 9})
	if err != nil || s.Name() != "hmac" {
		t.Fatalf("default scheme: %v %v", s, err)
	}
	ed, err := cli.Scheme("ed25519", cli.Params{N: 2})
	if err != nil || ed.Name() != "ed25519" {
		t.Fatalf("ed25519: %v", err)
	}
	pl, err := cli.Scheme("plain", cli.Params{N: 2})
	if err != nil || pl.Name() != "plain" {
		t.Fatalf("plain: %v", err)
	}
}

// TestReadmeListsEverySharedFlag is the doc-drift gate: every flag the
// shared surfaces register must appear, spelled `-name`, in the first cell
// of a README.md flag-table row.
func TestReadmeListsEverySharedFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| `-") {
			continue
		}
		for _, name := range strings.Fields(strings.Trim(strings.TrimSpace(cells[1]), "`")) {
			documented[name] = true
		}
	}
	// The run flags share -trace with the serve surface, so they register on
	// a flag set of their own.
	for _, register := range []func(*flag.FlagSet){
		func(fs *flag.FlagSet) { cli.RegisterServeFlags(fs); cli.RegisterSearchFlags(fs) }, // serve includes the template flags
		func(fs *flag.FlagSet) { cli.RegisterRunFlags(fs) },
	} {
		fs := flag.NewFlagSet("shared", flag.ContinueOnError)
		register(fs)
		fs.VisitAll(func(f *flag.Flag) {
			if !documented["-"+f.Name] {
				t.Errorf("flag -%s is registered but not in a README.md flag table", f.Name)
			}
		})
	}
}

// TestDesignMapListsEveryInternalPackage is the package map's drift gate:
// the table of DESIGN.md §6 must have one row for every package under
// internal/ and no row for anything else.
func TestDesignMapListsEveryInternalPackage(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 6. ")
	section, _, _ = strings.Cut(section, "\n## ")
	listed := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `internal/"); ok {
			name, _, _ = strings.Cut(name, "`")
			listed["internal/"+name] = true
		}
	}
	packages := make(map[string]bool)
	err = filepath.WalkDir("../../internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			packages[filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "../../")))] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range packages {
		if !listed[pkg] {
			t.Errorf("%s is a package but has no row in DESIGN.md §6", pkg)
		}
	}
	for pkg := range listed {
		if !packages[pkg] {
			t.Errorf("DESIGN.md §6 lists %s, which is not a package", pkg)
		}
	}
}
