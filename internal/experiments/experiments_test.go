package experiments_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"byzex/internal/experiments"
	"byzex/internal/trace"
)

// The experiment functions assert their own bounds internally (returning an
// error on any violation), so the tests here simply execute them. The
// heavier sweeps run under -short via the lighter members only.

func TestTableRendering(t *testing.T) {
	tbl := &experiments.Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow(1, "x")
	tbl.AddRow(22, "yyy")
	out := tbl.Render()
	if !strings.Contains(out, "EX — demo") || !strings.Contains(out, "22") {
		t.Fatalf("render output:\n%s", out)
	}
	if tbl.Err() != nil {
		t.Fatal("clean table reported error")
	}
	tbl.Violate("bad %d", 7)
	if tbl.Err() == nil || !strings.Contains(tbl.Err().Error(), "bad 7") {
		t.Fatal("violation not propagated")
	}
}

func TestE1(t *testing.T) {
	if _, err := experiments.E1Alg1(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestE2(t *testing.T) {
	if _, err := experiments.E2Alg2(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestE4(t *testing.T) {
	if _, err := experiments.E4Alg4(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestE6(t *testing.T) {
	if _, err := experiments.E6Theorem1(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestE7(t *testing.T) {
	if _, err := experiments.E7Unauth(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestE8(t *testing.T) {
	if _, err := experiments.E8Theorem2(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDeterminism is the tentpole acceptance check: rendering the
// same experiments at parallelism 1 and 8 must produce byte-identical
// tables (rows are emitted in submission order after the sweep completes).
func TestParallelDeterminism(t *testing.T) {
	defer experiments.SetParallelism(0)
	defer experiments.SetTrace(nil)
	funcs := []func(context.Context) (*experiments.Table, error){
		experiments.E1Alg1, experiments.E2Alg2, experiments.E4Alg4, experiments.E6Theorem1,
		experiments.E7Unauth, experiments.E8Theorem2,
	}
	if !testing.Short() {
		funcs = append(funcs, experiments.E12MessageSize, experiments.E13Alg5Breakdown)
	}
	// Each worker records into a private per-cell buffer and the buffers are
	// merged in cell order, so both the rendered tables AND the merged JSONL
	// trace must be byte-identical at any parallelism level. This test runs
	// under -race in `make check`, so it also proves the per-worker sink
	// plumbing is race-free.
	render := func(par int) (string, string) {
		experiments.SetParallelism(par)
		var traceOut bytes.Buffer
		sink := trace.NewJSONL(&traceOut)
		experiments.SetTrace(sink)
		var b strings.Builder
		for _, f := range funcs {
			tbl, err := f(context.Background())
			if err != nil {
				t.Fatalf("parallel=%d: %v", par, err)
			}
			b.WriteString(tbl.Render())
			b.WriteString(tbl.CSV())
		}
		if err := sink.Flush(); err != nil {
			t.Fatalf("parallel=%d: flushing trace: %v", par, err)
		}
		return b.String(), traceOut.String()
	}
	serial, serialTrace := render(1)
	parallel, parallelTrace := render(8)
	if serial != parallel {
		t.Fatal("tables differ between parallelism 1 and 8")
	}
	if serialTrace == "" {
		t.Fatal("no trace events captured from the sweeps")
	}
	if serialTrace != parallelTrace {
		t.Fatal("merged traces differ between parallelism 1 and 8")
	}
	if _, err := trace.ReadJSONL(strings.NewReader(serialTrace)); err != nil {
		t.Fatalf("merged trace does not parse: %v", err)
	}
}

func TestHeavySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy sweeps skipped in -short mode")
	}
	for _, f := range []func(context.Context) (*experiments.Table, error){
		experiments.E3Alg3, experiments.E5Alg5, experiments.E9Tradeoff, experiments.E10Baselines,
		experiments.E11Ablations, experiments.E12MessageSize, experiments.E13Alg5Breakdown, experiments.E14Scaling,
	} {
		if _, err := f(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
