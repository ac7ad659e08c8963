// Package experiments regenerates the paper's evaluation: one table per
// theorem (the paper is theoretical, so its "tables and figures" are the
// bounds of Theorems 1-7 and the introduction's phase/message trade-off).
// Each experiment runs the relevant algorithm across parameter sweeps and
// adversaries, reports measured worst-case counts next to the paper's
// closed-form bound, and returns an error if any bound is violated.
//
// The experiment IDs E1..E14 are indexed in DESIGN.md and the results are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/protocol"
	"byzex/internal/runner"
	"byzex/internal/trace"
)

// pool executes the E-table sweeps. Every cell of every sweep is an
// independent deterministic run, and rows are emitted only after a sweep
// completes, in submission order — so the rendered tables are byte-identical
// at any parallelism level.
var pool atomic.Pointer[runner.Pool]

func init() { pool.Store(runner.New(0)) }

// SetParallelism bounds how many runs the experiment sweeps execute
// concurrently; n < 1 selects GOMAXPROCS. cmd/baexp wires its -parallel
// flag here.
func SetParallelism(n int) { pool.Store(runner.New(n)) }

// sinkBox wraps the experiment-wide trace sink for atomic swapping (an
// interface value cannot be stored in an atomic.Pointer directly).
type sinkBox struct{ s trace.Sink }

var traceDst atomic.Pointer[sinkBox]

// SetTrace routes execution traces from every run inside the experiment
// sweeps to s (nil disables). Each sweep cell records into a private
// trace.Buffer carried by its context — core.Run picks it up via
// trace.FromContext — and the buffers are drained into s in cell-submission
// order after the sweep joins. The merged stream is therefore
// byte-identical at any parallelism level, and s itself is only ever
// emitted to from one goroutine at a time.
func SetTrace(s trace.Sink) { traceDst.Store(&sinkBox{s: s}) }

func traceSink() trace.Sink {
	if b := traceDst.Load(); b != nil {
		return b.s
	}
	return nil
}

// sweep runs fn over n independent sweep cells on the experiment pool,
// returning the results in cell order. When an experiment trace sink is
// installed, each cell's events are buffered and merged in cell order.
func sweep[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	sink := traceSink()
	if sink == nil {
		return runner.Map(ctx, pool.Load(), n, fn)
	}
	bufs := make([]*trace.Buffer, n)
	for i := range bufs {
		bufs[i] = trace.NewBuffer()
	}
	out, err := runner.Map(ctx, pool.Load(), n, func(ctx context.Context, i int) (T, error) {
		return fn(trace.NewContext(ctx, bufs[i]), i)
	})
	for _, b := range bufs {
		b.DrainTo(sink)
	}
	return out, err
}

// jobs runs heterogeneous independent steps as a sweep with one cell per
// step (same pool, same per-step trace buffering, lowest-index error).
func jobs(ctx context.Context, fns ...func(ctx context.Context) error) error {
	_, err := sweep(ctx, len(fns), func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fns[i](ctx)
	})
	return err
}

// Table is one regenerated evaluation table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Violations collects bound violations discovered while running (empty
	// for a successful reproduction).
	Violations []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Violate records a bound violation.
func (t *Table) Violate(format string, args ...interface{}) {
	t.Violations = append(t.Violations, fmt.Sprintf(format, args...))
}

// Err returns an error summarizing violations, or nil.
func (t *Table) Err() error {
	if len(t.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("experiment %s: %s", t.ID, strings.Join(t.Violations, "; "))
}

// CSV renders the table as RFC-4180-ish CSV (no quoting needed: cells are
// numbers, identifiers and short phrases without commas by construction).
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cleaned := make([]string, len(row))
		for i, cell := range row {
			cleaned[i] = strings.ReplaceAll(cell, ",", ";")
		}
		b.WriteString(strings.Join(cleaned, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, v := range t.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v)
	}
	return b.String()
}

// cell is one run a table makes: a registry row at its parameters.
type cell struct {
	row string
	p   cli.Params
}

// resolve builds the cell's protocol from its registry row. The cells are
// constants, so a miss is a typo the light tests catch.
func (c cell) resolve() protocol.Protocol {
	p, err := cli.Protocol(c.row, c.p)
	if err != nil {
		panic(err)
	}
	return p
}

// config is the cell's run with value v at seed, default scheme, no faults.
func (c cell) config(v ident.Value, seed int64) core.Config {
	return core.Config{Protocol: c.resolve(), N: c.p.N, T: c.p.T, Value: v, Seed: seed}
}

// baselines are the protocols E10, E12 and E14 compare at (n, t), in this
// order: the Dolev-Strong baseline, Algorithm 3 at s = 4t and Algorithm 5
// at s = t.
func baselines(n, t int) []cell {
	return []cell{
		{"dolev-strong", cli.Params{N: n, T: t}},
		{"alg3", cli.Params{N: n, T: t, S: 4 * t}},
		{"alg5", cli.Params{N: n, T: t, S: t}},
	}
}

// counts are a cell's worst case: the maxima over the adversary suite.
type counts struct{ msgs, sigs, phases int }

// worstCases is worstCase of every cell at seed, in cell order.
func worstCases(ctx context.Context, cells []cell, seed int64) ([]counts, error) {
	return sweep(ctx, len(cells), func(ctx context.Context, i int) (counts, error) {
		return worstCase(ctx, cells[i], seed)
	})
}

// faultFree runs every cell once fault-free with value 1 at seed, checks
// both agreement conditions, and returns the reports in cell order.
func faultFree(ctx context.Context, cells []cell, seed int64) ([]metrics.Report, error) {
	return sweep(ctx, len(cells), func(ctx context.Context, i int) (metrics.Report, error) {
		res, _, err := core.RunAndCheck(ctx, cells[i].config(ident.V1, seed))
		if err != nil {
			return metrics.Report{}, err
		}
		return res.Sim.Report, nil
	})
}

// worstCase runs the cell under a suite of adversaries (both fault-free
// values, split-brain transmitter, silent and crashing coalitions) and
// returns the maximum message count by correct processors, the maximum
// signature count, and the phase schedule. Agreement is checked on every
// run (condition (i) always; condition (ii) when the transmitter is
// correct).
func worstCase(ctx context.Context, c cell, seed int64) (counts, error) {
	scenarios := []struct {
		name, adv string // adv is a cli.Adversary name
		value     ident.Value
	}{
		{"honest-0", "none", ident.V0},
		{"honest-1", "none", ident.V1},
		{"split-brain", "split-brain", ident.V1},
		{"silent", "silent", ident.V1},
		{"crash", "crash", ident.V1},
	}
	if c.p.T < 1 {
		scenarios = scenarios[:2]
	}
	var w counts
	for _, sc := range scenarios {
		cfg := c.config(sc.value, seed)
		adv, err := cli.Adversary(sc.adv, c.p)
		if err != nil {
			return counts{}, err
		}
		cfg.Adversary = adv
		res, err := core.Run(ctx, cfg)
		if err == nil {
			_, err = res.Decision(0, sc.value)
		}
		if err != nil {
			return counts{}, fmt.Errorf("%s under %s: %w", cfg.Protocol.Name(), sc.name, err)
		}
		w.msgs = max(w.msgs, res.Sim.Report.MessagesCorrect)
		w.sigs = max(w.sigs, res.Sim.Report.SignaturesCorrect)
		w.phases = res.Phases
	}
	return w, nil
}

// all lists every experiment in order; entry i is experiment "E<i+1>".
var all = []func(context.Context) (*Table, error){
	E1Alg1, E2Alg2, E3Alg3, E4Alg4, E5Alg5,
	E6Theorem1, E7Unauth, E8Theorem2, E9Tradeoff, E10Baselines, E11Ablations, E12MessageSize, E13Alg5Breakdown, E14Scaling,
}

// ByID resolves an experiment id ("E1".."E14", any case) against the list
// All walks.
func ByID(id string) (func(context.Context) (*Table, error), bool) {
	for i, f := range all {
		if strings.EqualFold(id, fmt.Sprintf("E%d", i+1)) {
			return f, true
		}
	}
	return nil, false
}

// All runs every experiment in order.
func All(ctx context.Context) ([]*Table, error) {
	out := make([]*Table, 0, len(all))
	for _, f := range all {
		tbl, err := f(ctx)
		if tbl != nil {
			out = append(out, tbl)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
