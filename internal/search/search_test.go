package search

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/runner"
	"byzex/internal/trace"
)

// mustProtocol is a search config for the named registry row at its
// canonical size.
func mustProtocol(t *testing.T, name string) Config {
	t.Helper()
	e, err := cli.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := cli.Protocol(name, cli.Params{N: e.N, T: e.T, Seed: 7})
	if err != nil {
		t.Fatalf("protocol %q: %v", name, err)
	}
	return Config{Protocol: proto, N: e.N, T: e.T, Class: e.Class}
}

// TestSearchDeterministic pins the determinism contract: the same seed must
// produce the identical trajectory, best candidate and trace at any
// parallelism level.
func TestSearchDeterministic(t *testing.T) {
	run := func(workers int) (*Result, []trace.Event) {
		cfg := mustProtocol(t, "alg1")
		cfg.Objective = ObjMessages
		cfg.Budget = 40
		cfg.Seed = 42
		cfg.Pool = runner.New(workers)
		buf := &trace.Buffer{}
		cfg.Trace = buf
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		return res, buf.Events()
	}
	serial, serialEvents := run(1)
	parallel, parallelEvents := run(4)

	if serial.Best == nil || parallel.Best == nil {
		t.Fatalf("no feasible candidate found: serial=%v parallel=%v", serial.Best, parallel.Best)
	}
	if got, want := parallel.Best.Cand.Key(), serial.Best.Cand.Key(); got != want {
		t.Errorf("best candidate differs across parallelism: %q vs %q", got, want)
	}
	if got, want := parallel.Best.Cost, serial.Best.Cost; got != want {
		t.Errorf("best cost differs: %d vs %d", got, want)
	}
	if !reflect.DeepEqual(serial.Trajectory, parallel.Trajectory) {
		t.Errorf("trajectories differ:\nserial:   %v\nparallel: %v", serial.Trajectory, parallel.Trajectory)
	}
	if !reflect.DeepEqual(serialEvents, parallelEvents) {
		t.Errorf("trace events differ: %d serial vs %d parallel", len(serialEvents), len(parallelEvents))
	}
	if serial.Evals != 40 {
		t.Errorf("evals = %d, want the full budget 40", serial.Evals)
	}
}

// TestSearchBaselineFeasible checks the anchor of the whole construction:
// the fault-free candidate is feasible and costs what an honest run costs.
func TestSearchBaselineFeasible(t *testing.T) {
	cfg := mustProtocol(t, "alg2")
	cfg.Objective = ObjSignatures
	cfg.Budget = 5
	cfg.Seed = 3
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !res.Baseline.Feasible {
		t.Fatalf("fault-free baseline infeasible: violation=%v", res.Baseline.Violation)
	}
	if res.Baseline.Cost <= 0 {
		t.Fatalf("baseline cost = %d, want > 0", res.Baseline.Cost)
	}
}

// TestAtlasGate runs the registry-wide sweep at a small budget and requires
// the gap gate to pass: no correct protocol undercuts its bound or breaks
// agreement, and the search breaks both strawmen.
func TestAtlasGate(t *testing.T) {
	budget := 60
	if testing.Short() {
		budget = 24
	}
	rows, err := RunAtlas(context.Background(), AtlasConfig{Budget: budget, Seed: 1})
	if err != nil {
		t.Fatalf("atlas: %v", err)
	}
	// The rows cover exactly the registry: in its order, a messages row per
	// protocol and a signatures row before it for the authenticated ones.
	i := 0
	for _, e := range cli.Registry() {
		for _, obj := range []Objective{ObjSignatures, ObjMessages} {
			if obj == ObjSignatures && e.Scheme == "plain" {
				continue
			}
			if i >= len(rows) || rows[i].Target.Name != e.Name || rows[i].Objective != obj {
				t.Fatalf("row %d is not %s/%s:\n%s", i, e.Name, obj, RenderRows(rows))
			}
			i++
		}
	}
	if i != len(rows) {
		t.Fatalf("%d rows beyond the registry's %d", len(rows)-i, i)
	}
	if err := CheckRows(rows); err != nil {
		t.Fatalf("gate: %v\n%s", err, RenderRows(rows))
	}
	t.Logf("\n%s", RenderRows(rows))
}

// TestSearchFindsStrawmanViolations pins the negative controls: a tiny
// budget must suffice for the search to break both strawmen, and CheckRows
// must refuse a strawman row without a violation.
func TestSearchFindsStrawmanViolations(t *testing.T) {
	strawmen := 0
	for _, e := range cli.Registry() {
		if e.Class != cli.ClassStrawman {
			continue
		}
		strawmen++
		name := e.Name
		cfg := mustProtocol(t, name)
		cfg.Objective = ObjMessages
		cfg.Budget = 20
		cfg.Seed = 9
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Violations == 0 {
			t.Errorf("%s: no violation found in %d evals", name, res.Evals)
			continue
		}
		v := res.ViolationSamples[0]
		t.Logf("%s broken by %s: %v", name, v.Cand.Provenance(), v.Violation)
	}

	if strawmen == 0 {
		t.Fatal("the registry has no strawman row: the search lost its negative controls")
	}

	row := Row{Target: Target{Entry: cli.Entry{Name: "strawman-broadcast", Class: cli.ClassStrawman}}, Objective: ObjMessages}
	if err := CheckRows([]Row{row}); !errors.Is(err, ErrGate) {
		t.Errorf("CheckRows accepted a strawman row without violations: %v", err)
	}
}
