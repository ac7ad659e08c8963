package cli_test

import (
	"context"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"byzex/internal/audit"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg5"
)

// TestEveryProtocolNameResolvesAndRuns is the registry's own test: the
// table is in strict name order (so names are unique and ProtocolNames is
// sorted), and every row's constructor accepts the row's canonical size and
// runs fault-free at both values, under the row's scheme, to the outcome its
// class promises and within the row's MsgUpper and Phases promise. Each run
// is recorded and replayed: Section 2's conformance check flags no
// processor. The lower-bound audits then sort the rows by class: agreement
// protocols respect Theorems 1 and 2, strawmen fail both, and the exchange
// primitives, which decide a constant, are outside the audits' premise.
func TestEveryProtocolNameResolvesAndRuns(t *testing.T) {
	ctx := context.Background()
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
		for _, v := range []ident.Value{ident.V0, ident.V1} {
			res, h, err := audit.Record(ctx, core.Config{
				Protocol: proto, N: e.N, T: e.T, Value: v, Scheme: scheme,
			})
			if err != nil {
				t.Errorf("%s v=%v: %v", e.Name, v, err)
				continue
			}
			// Fault-free, agreement protocols and strawmen alike decide the
			// transmitter's value; the exchange primitives decide a constant,
			// so they owe unanimity only.
			if _, err := res.Decision(0, v); e.Class.Verdict(err) != nil {
				t.Errorf("%s (%s) v=%v: %v", e.Name, e.Class, v, err)
			}
			if e.MsgUpper != nil {
				if got, bound := res.Sim.Report.MessagesCorrect, e.MsgUpper(params); got > bound {
					t.Errorf("%s n=%d t=%d v=%v: %d messages from correct processors, row promises ≤ %d", e.Name, e.N, e.T, v, got, bound)
				}
			}
			conf, err := audit.Conformance(h, proto, scheme, e.T)
			if err != nil {
				t.Fatalf("%s v=%v: %v", e.Name, v, err)
			}
			for p, phase := range conf {
				if phase != 0 {
					t.Errorf("%s v=%v: fault-free %v flagged at phase %d", e.Name, v, p, phase)
				}
			}
		}
		if e.Phases != nil {
			if got, want := proto.Phases(e.N, e.T), e.Phases(params); got != want {
				t.Errorf("%s n=%d t=%d: Phases = %d, row promises %d", e.Name, e.N, e.T, got, want)
			}
		}
		if e.Class == cli.ClassExchange {
			continue
		}
		sigs, err := audit.AuditSignatures(ctx, proto, e.N, e.T, scheme)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		msgs, err := audit.StarvationAudit(ctx, proto, e.N, e.T, scheme)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if want := e.Class == cli.ClassAgreement; sigs.Satisfied() != want || msgs.Satisfied() != want {
			t.Errorf("%s (%s): Theorem 1 audit satisfied=%v (min|A(p)| %d, need %d), Theorem 2 audit satisfied=%v (starved member got %d, need %d)",
				e.Name, e.Class, sigs.Satisfied(), sigs.MinAPSize, e.T+1, msgs.Satisfied(), msgs.MinReceived, msgs.RequiredPerMember)
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
// internal/ and no row for anything else, and each row's arrow list must be
// exactly the package's non-test internal/ imports.
func TestDesignMapListsEveryInternalPackage(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 6. ")
	section, _, _ = strings.Cut(section, "\n## ")
	listed := make(map[string]string) // package → its arrow list
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `internal/"); ok {
			name, role, _ := strings.Cut(name, "`")
			arrows := "no deps"
			if i := strings.LastIndex(role, "(→ "); i >= 0 {
				arrows, _, _ = strings.Cut(role[i+len("(→ "):], ")")
			} else if !strings.Contains(role, "(no deps)") {
				t.Errorf("DESIGN.md §6 row internal/%s has neither (→ …) nor (no deps)", name)
			}
			listed["internal/"+name] = arrows
		}
	}
	imports := make(map[string]map[string]bool) // package → its internal/ imports
	fset := token.NewFileSet()
	err = filepath.WalkDir("../../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "../../")))
		if imports[pkg] == nil {
			imports[pkg] = make(map[string]bool)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			if dep, ok := strings.CutPrefix(strings.Trim(spec.Path.Value, `"`), "byzex/"); ok && strings.HasPrefix(dep, "internal/") {
				imports[pkg][dep] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// expand resolves one arrow: a package's last path element, or the
	// shorthand protocols/* (every protocol package).
	expand := func(arrow string) []string {
		var out []string
		for pkg := range imports {
			if strings.HasSuffix(pkg, "/"+arrow) || arrow == "protocols/*" && strings.HasPrefix(pkg, "internal/protocols/") {
				out = append(out, pkg)
			}
		}
		if len(out) == 0 || len(out) > 1 && arrow != "protocols/*" {
			t.Errorf("DESIGN.md §6 arrow %q names %d packages", arrow, len(out))
		}
		return out
	}
	for pkg, deps := range imports {
		arrows, ok := listed[pkg]
		if !ok {
			t.Errorf("%s is a package but has no row in DESIGN.md §6", pkg)
			continue
		}
		named := make(map[string]bool)
		if arrows != "no deps" {
			for _, arrow := range strings.Split(arrows, ", ") {
				for _, dep := range expand(arrow) {
					named[dep] = true
				}
			}
		}
		for dep := range deps {
			if !named[dep] {
				t.Errorf("%s imports %s, which its DESIGN.md §6 row does not list", pkg, dep)
			}
		}
		for dep := range named {
			if !deps[dep] {
				t.Errorf("DESIGN.md §6 lists %s → %s, which it does not import", pkg, dep)
			}
		}
	}
	for pkg := range listed {
		if imports[pkg] == nil {
			t.Errorf("DESIGN.md §6 lists %s, which is not a package", pkg)
		}
	}
}
