package experiments

import (
	"context"
	"fmt"

	"byzex/internal/adversary"
	"byzex/internal/audit"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg4"
	"byzex/internal/protocols/alg5"
	"byzex/internal/sig"
)

// E1Alg1 reproduces Theorem 3: Algorithm 1 uses t+2 phases and ≤ 2t²+2t
// messages for n = 2t+1, worst case over the adversary suite.
func E1Alg1(ctx context.Context) (*Table, error) {
	var cells []cli.Params
	for _, t := range []int{1, 2, 4, 8, 16, 32} {
		cells = append(cells, cli.Params{N: 2*t + 1, T: t})
	}
	return promised(ctx, &Table{
		ID:      "E1",
		Title:   "Theorem 3 — Algorithm 1 (n=2t+1): messages ≤ 2t²+2t, phases = t+2",
		Columns: []string{"t", "n", "msgs(worst)", "bound 2t²+2t", "phases", "phase bound t+2"},
	}, "alg1", 1, cells, func(p cli.Params) []any { return []any{p.T, p.N} })
}

// promised is a table of one registry row against its own promise (E1, E3,
// E5): each cell's worst case (see worstCase, at seed) must send at most the
// row's MsgUpper and take exactly its Phases. A cell's row is key(cell),
// then measured messages, MsgUpper, measured phases and Phases.
func promised(ctx context.Context, tbl *Table, name string, seed int64, params []cli.Params, key func(cli.Params) []any) (*Table, error) {
	e := row(name)
	cells := make([]cell, len(params))
	for i, p := range params {
		cells[i] = cell{name, p}
	}
	out, err := worstCases(ctx, cells, seed)
	if err != nil {
		return nil, err
	}
	for i, w := range out {
		p := params[i]
		bound, pb := e.MsgUpper(p), e.Phases(p)
		tbl.AddRow(append(key(p), w.msgs, bound, w.phases, pb)...)
		if w.msgs > bound {
			tbl.Violate("n=%d t=%d s=%d: %d msgs > %d", p.N, p.T, p.S, w.msgs, bound)
		}
		if w.phases != pb {
			tbl.Violate("n=%d t=%d s=%d: phases %d != %d", p.N, p.T, p.S, w.phases, pb)
		}
	}
	return tbl, tbl.Err()
}

// nts is the leading columns of the tables swept in n, t and s.
func nts(p cli.Params) []any { return []any{p.N, p.T, p.S} }

// row is the registry row of a protocol a table names. The names are
// constants, so a miss is a typo the light tests catch.
func row(name string) cli.Entry {
	e, err := cli.Lookup(name)
	if err != nil {
		panic(err)
	}
	return e
}

// E2Alg2 reproduces Theorem 4: Algorithm 2 uses 3t+3 phases, ≤ 5t²+5t
// messages, and leaves every correct processor with a ≥t-other-signature
// proof of the common value.
func E2Alg2(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E2",
		Title:   "Theorem 4 — Algorithm 2 (n=2t+1): messages ≤ 5t²+5t, phases = 3t+3, all hold proofs",
		Columns: []string{"t", "n", "msgs(worst)", "bound 5t²+5t", "phases", "proofs held", "proof sigs ≥"},
	}
	ts := []int{1, 2, 4, 8, 16}
	type result struct{ msgs, phases, held, minSigs int }
	out, err := sweep(ctx, len(ts), func(ctx context.Context, i int) (result, error) {
		c := cell{"alg2", cli.Params{N: 2*ts[i] + 1, T: ts[i]}}
		n, t := c.p.N, c.p.T
		w, err := worstCase(ctx, c, 2)
		if err != nil {
			return result{}, err
		}

		// Proof check on a fresh fault-free run.
		cfg := c.config(ident.V1, 0)
		scheme := sig.NewHMAC(n, 99)
		cfg.Scheme = scheme
		res, _, err := core.RunAndCheck(ctx, cfg)
		if err != nil {
			return result{}, err
		}
		held, minSigs := 0, -1
		for _, nd := range res.Nodes {
			ph, ok := nd.(alg2.ProofHolder)
			if !ok {
				continue
			}
			proof, has := ph.Proof()
			if !has {
				continue
			}
			if err := alg2.VerifyProof(proof, ident.Range(n), t, scheme); err != nil {
				continue
			}
			held++
			if d := proof.Chain.DistinctCount(); minSigs < 0 || d < minSigs {
				minSigs = d
			}
		}
		return result{w.msgs, w.phases, held, minSigs}, nil
	})
	if err != nil {
		return nil, err
	}
	alg2Row := row("alg2")
	for i, c := range out {
		t := ts[i]
		n := 2*t + 1
		p := cli.Params{N: n, T: t}
		bound := alg2Row.MsgUpper(p)
		tbl.AddRow(t, n, c.msgs, bound, c.phases, fmt.Sprintf("%d/%d", c.held, n), c.minSigs)
		if c.msgs > bound {
			tbl.Violate("t=%d: %d msgs > %d", t, c.msgs, bound)
		}
		if c.held != n {
			tbl.Violate("t=%d: only %d/%d processors hold proofs", t, c.held, n)
		}
		if want := alg2Row.Phases(p); c.phases != want {
			tbl.Violate("t=%d: phases %d != %d", t, c.phases, want)
		}
	}
	return tbl, tbl.Err()
}

// E3Alg3 reproduces Lemma 1 / Theorem 5: Algorithm 3's message count obeys
// 2n + 4tn/s + 3t²s across an s sweep; s = 4t gives O(n + t³).
func E3Alg3(ctx context.Context) (*Table, error) {
	var cells []cli.Params
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		cells = append(cells, cli.Params{N: 256, T: 4, S: s})
	}
	cells = append(cells, cli.Params{N: 1024, T: 8, S: 32}, cli.Params{N: 2048, T: 4, S: 16}, cli.Params{N: 512, T: 2, S: 8})
	return promised(ctx, &Table{
		ID:      "E3",
		Title:   "Lemma 1 / Theorem 5 — Algorithm 3: messages ≤ 2n+4tn/s+3t²s, phases = t+2s+3",
		Columns: []string{"n", "t", "s", "msgs(worst)", "bound", "phases", "phase bound"},
	}, "alg3", 3, cells, nts)
}

// E4Alg4 reproduces Theorem 6: the grid exchange sends ≤ 3(m-1)m² messages
// and at least N-2t processors succeed in mutually exchanging values.
func E4Alg4(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E4",
		Title:   "Theorem 6 — Algorithm 4 (N=m²): messages ≤ 3(m-1)m², ≥ N-2t mutual exchanges",
		Columns: []string{"m", "N", "t", "msgs", "bound 3(m-1)m²", "|P| measured", "N-2t"},
	}
	ms := []int{3, 4, 6, 8, 12, 16}
	type result struct{ msgs, p int }
	out, err := sweep(ctx, len(ms), func(ctx context.Context, i int) (result, error) {
		m := ms[i]
		n := m * m
		t := m / 2
		var faulty ident.Set
		for i := 0; i < t; i++ {
			// Spread faults across rows to exercise the row-quorum logic.
			faulty.Add(ident.ProcID(i*m + (i % m)))
		}
		cfg := cell{"alg4", cli.Params{N: n, T: t}}.config(ident.V0, 4)
		cfg.Scheme, cfg.Adversary, cfg.FaultyOverride = sig.NewHMAC(n, 4), adversary.Silent{}, &faulty
		res, err := core.Run(ctx, cfg)
		if err != nil {
			return result{}, err
		}
		// Measure the mutually-exchanged set: correct processors that
		// received the signed value of every correct processor whose row
		// quorum held.
		return result{res.Sim.Report.MessagesCorrect, measureExchangeSet(res, n, m, faulty)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range out {
		m := ms[i]
		n, t := m*m, m/2
		bound := row("alg4").MsgUpper(cli.Params{N: n, T: t})
		tbl.AddRow(m, n, t, c.msgs, bound, c.p, n-2*t)
		if c.msgs > bound {
			tbl.Violate("m=%d: %d msgs > %d", m, c.msgs, bound)
		}
		if c.p < n-2*t {
			tbl.Violate("m=%d: |P| = %d < N-2t = %d", m, c.p, n-2*t)
		}
	}
	return tbl, tbl.Err()
}

// measureExchangeSet computes the largest candidate P from Lemma 2's
// construction (correct processors whose row has < m/2 faults) and verifies
// all pairs exchanged; it returns |P|.
func measureExchangeSet(res *core.Result, n, m int, faulty ident.Set) int {
	var candidates []ident.ProcID
	for i := 0; i < n; i++ {
		id := ident.ProcID(i)
		if faulty.Has(id) {
			continue
		}
		row := i / m
		rowFaults := 0
		for c := 0; c < m; c++ {
			if faulty.Has(ident.ProcID(row*m + c)) {
				rowFaults++
			}
		}
		if 2*rowFaults < m {
			candidates = append(candidates, id)
		}
	}
	// Verify mutual exchange within the candidate set.
	count := 0
	for _, p := range candidates {
		ex, ok := res.Nodes[p].(alg4.Exchanger)
		if !ok {
			continue
		}
		out := ex.Output()
		all := true
		for _, q := range candidates {
			if len(out[q].Chain) == 0 {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return count
}

// E5Alg5 reproduces Lemma 5 / Theorem 7: Algorithm 5's message count is
// O(t² + nt/s) and O(n + t²) at s = t.
func E5Alg5(ctx context.Context) (*Table, error) {
	return promised(ctx, &Table{
		ID:      "E5",
		Title:   "Lemma 5 / Theorem 7 — Algorithm 5: messages = O(t²+nt/s), phases = O(t+s)",
		Columns: []string{"n", "t", "s", "msgs(worst)", "bound", "phases", "phase bound"},
	}, "alg5", 5, []cli.Params{
		{N: 64, T: 2, S: 2}, {N: 256, T: 2, S: 2}, {N: 1024, T: 2, S: 2},
		{N: 64, T: 3, S: 3}, {N: 256, T: 3, S: 3}, {N: 1024, T: 3, S: 3},
		{N: 256, T: 4, S: 4}, {N: 512, T: 4, S: 4},
		{N: 256, T: 4, S: 1}, {N: 256, T: 4, S: 8},
	}, nts)
}

// E6Theorem1 reproduces Theorem 1: correct protocols exchange ≥ t+1
// signatures per processor (min |A(p)|) and ≥ n(t+1)/4 signatures total in
// a fault-free history, while the replay construction breaks a protocol
// that undercuts the bound. The row's class says which of the two a cell
// owes: an agreement row must leave the replay inapplicable, a strawman
// must be broken by it.
func E6Theorem1(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E6",
		Title:   "Theorem 1 — Ω(nt) signatures: audits and the split-brain replay attack",
		Columns: []string{"protocol", "n", "t", "min|A(p)|", "t+1", "sigs max(H,G)", "bound n(t+1)/4", "replay attack"},
	}
	cells := []cell{
		{"alg1", cli.Params{N: 9, T: 4}},
		{"alg1", cli.Params{N: 33, T: 16}},
		{"alg2", cli.Params{N: 9, T: 4}},
		{"dolev-strong", cli.Params{N: 16, T: 4}},
		{"alg3", cli.Params{N: 64, T: 4, S: 8}},
		{"alg5", cli.Params{N: 64, T: 3, S: 3}},
		{"strawman-broadcast", cli.Params{N: 9, T: 3}},
		{"strawman-broadcast", cli.Params{N: 16, T: 4}},
	}
	type result struct {
		audit  *audit.SigAudit
		replay *audit.AttackOutcome // nil when the audit leaves it inapplicable
	}
	out, err := sweep(ctx, len(cells), func(ctx context.Context, i int) (result, error) {
		p, n, t := cells[i].resolve(), cells[i].p.N, cells[i].p.T
		a, err := audit.AuditSignatures(ctx, p, n, t, nil)
		if err != nil || a.Satisfied() {
			return result{audit: a}, err
		}
		replay, err := audit.ReplayAttack(ctx, p, n, t, nil)
		return result{a, replay}, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		c, a := cells[i], r.audit
		name, n, t := c.resolve().Name(), c.p.N, c.p.T
		most := max(a.HSignatures, a.GSignatures)
		tbl.AddRow(name, n, t, a.MinAPSize, t+1, most, a.Bound, verdict(r.replay))
		broke := r.replay != nil && r.replay.Broke()
		if row(c.row).Class == cli.ClassStrawman {
			if !broke {
				tbl.Violate("%s survived replay at n=%d t=%d", name, n, t)
			}
			continue
		}
		if !a.Satisfied() {
			tbl.Violate("%s: min|A(p)| %d < %d", name, a.MinAPSize, t+1)
		}
		if most < a.Bound {
			tbl.Violate("%s: %d sigs < bound %d", name, most, a.Bound)
		}
		if broke {
			tbl.Violate("%s: replay attack broke a correct protocol", name)
		}
	}
	return tbl, tbl.Err()
}

// verdict is how a table prints a lower-bound construction's outcome; nil
// is a construction the protocol's audit made inapplicable.
func verdict(out *audit.AttackOutcome) string {
	switch {
	case out == nil:
		return "not applicable (bound respected)"
	case out.Broke():
		return fmt.Sprint("broken: ", out.Violation)
	}
	return "survived"
}

// E7Unauth reproduces Corollary 1: the unauthenticated baselines' message
// counts sit above n(t+1)/4.
func E7Unauth(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E7",
		Title:   "Corollary 1 — unauthenticated messages ≥ n(t+1)/4 (LSP and Phase King baselines)",
		Columns: []string{"protocol", "n", "t", "msgs(worst)", "lower bound n(t+1)/4", "phases"},
	}
	var cells []cell
	for _, t := range []int{1, 2, 3, 4} {
		cells = append(cells, cell{"lsp", cli.Params{N: 3*t + 1, T: t}})
	}
	for _, t := range []int{1, 2, 3, 5} {
		cells = append(cells, cell{"phase-king", cli.Params{N: 4*t + 1, T: t}})
	}
	out, err := worstCases(ctx, cells, 7)
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		name, n, t := cells[i].resolve().Name(), cells[i].p.N, cells[i].p.T
		bound := core.MsgLowerBoundUnauth(n, t)
		tbl.AddRow(name, n, t, r.msgs, bound, r.phases)
		if r.msgs < bound {
			tbl.Violate("%s n=%d t=%d: %d msgs < lower bound %d", name, n, t, r.msgs, bound)
		}
	}
	return tbl, tbl.Err()
}

// E8Theorem2 reproduces Theorem 2: under the B-set starvation adversary the
// correct processors still push ⌈1+t/2⌉ messages into every starved member,
// and totals stay above max{(n-1)/2, (1+t/2)²}; the omission construction
// breaks the strawman. The row's class picks the run: the starvation audit
// for an agreement row, the omission attack for a strawman.
func E8Theorem2(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E8",
		Title:   "Theorem 2 — Ω(n+t²) messages: starvation audit and omission attack",
		Columns: []string{"protocol", "n", "t", "min msgs into B", "need ⌈1+t/2⌉", "total msgs", "bound max{(n-1)/2,(1+t/2)²}"},
	}
	cells := []cell{
		{"alg1", cli.Params{N: 9, T: 4}},
		{"alg1", cli.Params{N: 17, T: 8}},
		{"alg2", cli.Params{N: 9, T: 4}},
		{"dolev-strong", cli.Params{N: 16, T: 4}},
		{"strawman-broadcast", cli.Params{N: 8, T: 2}},
	}
	type result struct {
		audit    *audit.MsgAudit
		omission *audit.AttackOutcome
	}
	out, err := sweep(ctx, len(cells), func(ctx context.Context, i int) (result, error) {
		p, n, t := cells[i].resolve(), cells[i].p.N, cells[i].p.T
		if row(cells[i].row).Class == cli.ClassStrawman {
			o, err := audit.OmissionAttack(ctx, p, n, t, nil)
			return result{omission: o}, err
		}
		a, err := audit.StarvationAudit(ctx, p, n, t, nil)
		return result{audit: a}, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		name, n, t := cells[i].resolve().Name(), cells[i].p.N, cells[i].p.T
		if a := r.audit; a != nil {
			tbl.AddRow(name, n, t, a.MinReceived, a.RequiredPerMember, a.TotalMessages, a.Bound)
			if !a.Satisfied() {
				tbl.Violate("%s: starved member got %d < %d", name, a.MinReceived, a.RequiredPerMember)
			}
			if a.TotalMessages < a.Bound {
				tbl.Violate("%s: total %d < bound %d", name, a.TotalMessages, a.Bound)
			}
			continue
		}
		// The construction withholds everything from its victim, which
		// Theorem 2 says needs ⌈1+t/2⌉ (StarvationAudit's RequiredPerMember).
		tbl.AddRow(name, n, t, 0, 1+(t+1)/2, "-", verdict(r.omission))
		if !r.omission.Broke() {
			tbl.Violate("%s survived omission attack at n=%d t=%d", name, n, t)
		}
	}
	return tbl, tbl.Err()
}

// E9Tradeoff reproduces the introduction's trade-off: for n ≫ t, Algorithm 3
// with s = ⌈t/(2α)⌉ gives ≈ t+3+t/α phases and O(αn) messages.
func E9Tradeoff(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E9",
		Title:   "Intro trade-off — t+3+t/α phases vs O(αn) messages (Algorithm 3, s=⌈t/2α⌉)",
		Columns: []string{"α", "n", "t", "s", "msgs(worst)", "msgs/n", "phases", "paper phases t+3+t/α"},
	}
	n, t := 2048, 8
	alphas := []int{1, 2, 4, 8}
	cells := make([]cell, len(alphas))
	for i, alpha := range alphas {
		cells[i] = cell{"alg3", cli.Params{N: n, T: t, S: (t + 2*alpha - 1) / (2 * alpha)}}
	}
	out, err := worstCases(ctx, cells, 9)
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		alpha, p := alphas[i], cells[i].p
		ratio := float64(r.msgs) / float64(n)
		tbl.AddRow(alpha, n, t, p.S, r.msgs, fmt.Sprintf("%.1f", ratio), r.phases, core.TradeoffPhases(t, alpha))
		if r.msgs > row("alg3").MsgUpper(p) {
			tbl.Violate("α=%d: %d msgs > Lemma 1 bound", alpha, r.msgs)
		}
	}
	return tbl, tbl.Err()
}

// E10Baselines is the head-to-head comparison motivating the paper: the
// message-optimal algorithms against the Dolev-Strong baseline.
func E10Baselines(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E10",
		Title:   "Baseline comparison — messages/signatures/phases across algorithms",
		Columns: []string{"n", "t", "protocol", "msgs(worst)", "sigs(worst)", "phases"},
	}
	var cells []cell
	for _, p := range []cli.Params{{N: 25, T: 2}, {N: 64, T: 3}, {N: 256, T: 4}, {N: 1024, T: 4}} {
		cells = append(cells, baselines(p.N, p.T)...)
	}
	out, err := worstCases(ctx, cells, 10)
	if err != nil {
		return nil, err
	}
	for i, r := range out {
		c := cells[i]
		tbl.AddRow(c.p.N, c.p.T, c.resolve().Name(), r.msgs, r.sigs, r.phases)
		// The paper's headline: for n ≫ t the optimal algorithm (the
		// third baseline) sends far fewer messages than the O(n²)-message
		// one (the first).
		if ds := out[i-i%3].msgs; i%3 == 2 && c.p.N >= 256 && r.msgs >= ds {
			tbl.Violate("n=%d t=%d: alg5 (%d) not below dolev-strong (%d)", c.p.N, c.p.T, r.msgs, ds)
		}
	}
	return tbl, tbl.Err()
}

// E11Ablations quantifies the design choices DESIGN.md calls out:
// Algorithm 5's proof-of-work gating (ungated blocks re-activate every
// subtree), and the §5 relay exchange vs the Theorem 6 grid across the
// t ≈ √N crossover.
func E11Ablations(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E11",
		Title:   "Ablations — proof-of-work gating; relay (Θ(Nt)) vs grid (O(N^1.5)) exchange",
		Columns: []string{"ablation", "config", "msgs", "comparator", "msgs", "finding"},
	}
	// (a) Algorithm 5 with and without the PoW gate.
	p := cli.Params{N: 200, T: 3, S: 3}
	gate, err := worstCases(ctx, []cell{{"alg5", p}, {"alg5-nopow", p}}, 11)
	if err != nil {
		return nil, err
	}
	gated, ungated := gate[0].msgs, gate[1].msgs
	tbl.AddRow("alg5 PoW gate", fmt.Sprintf("n=%d t=%d s=%d", p.N, p.T, p.S),
		gated, "gate disabled", ungated,
		fmt.Sprintf("gating saves %.1fx messages", float64(ungated)/float64(gated)))
	if ungated <= gated {
		tbl.Violate("disabling the PoW gate did not cost messages (%d vs %d)", ungated, gated)
	}
	if gated > row("alg5").MsgUpper(p) {
		tbl.Violate("gated alg5 above its bound")
	}

	// (b) Relay vs grid exchange across the crossover: one grid and one
	// relay run per point.
	crossover := []struct {
		m, t     int
		gridWins bool
	}{
		{8, 2, false}, {8, 16, true}, {16, 4, false}, {16, 32, true},
	}
	msgs, err := sweep(ctx, 2*len(crossover), func(ctx context.Context, i int) (int, error) {
		x := crossover[i/2]
		c := cell{[]string{"alg4", "alg4-relay"}[i%2], cli.Params{N: x.m * x.m, T: x.t}}
		res, err := core.Run(ctx, c.config(ident.V0, 11))
		if err != nil {
			return 0, err
		}
		return res.Sim.Report.MessagesCorrect, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range crossover {
		nn, grid, relay := c.m*c.m, msgs[2*i], msgs[2*i+1]
		winner := "relay"
		if grid < relay {
			winner = "grid"
		}
		tbl.AddRow("exchange", fmt.Sprintf("N=%d t=%d", nn, c.t), grid, "relay", relay, winner+" wins")
		if (grid < relay) != c.gridWins {
			tbl.Violate("N=%d t=%d: crossover on the wrong side", nn, c.t)
		}
	}
	return tbl, tbl.Err()
}

// E12MessageSize quantifies the paper's §6 remark that the O(n+t²)
// algorithm "requires sending long messages": per protocol, the largest
// single message and the total byte volume at a fixed (n, t). Fewer
// messages are paid for with heavier ones (signature chains and
// proof-of-work strings).
func E12MessageSize(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E12",
		Title:   "§6 remark — message sizes: fewer messages cost longer messages",
		Columns: []string{"protocol", "n", "t", "msgs", "max msg bytes", "total bytes", "bytes/msg"},
	}
	const n, t = 256, 4
	cells := baselines(n, t)
	reports, err := faultFree(ctx, cells, 12)
	if err != nil {
		return nil, err
	}
	for i, r := range reports {
		avg := 0
		if r.MessagesCorrect > 0 {
			avg = r.BytesCorrect / r.MessagesCorrect
		}
		tbl.AddRow(cells[i].resolve().Name(), n, t, r.MessagesCorrect, r.MaxMessageBytes, r.BytesCorrect, avg)
	}
	return tbl, tbl.Err()
}

// E13Alg5Breakdown decomposes Algorithm 5's message budget by schedule
// stage: the Algorithm 2 core, the fan-out, each tree block (activation +
// walk + report + Algorithm 4 exchange), and the block-0 direct sends —
// fault-free vs. a faulty coalition of passive roots, showing where the
// adversary forces extra traffic.
func E13Alg5Breakdown(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E13",
		Title:   "Algorithm 5 message budget by stage (n=200, t=3, s=3)",
		Columns: []string{"stage", "phases", "msgs fault-free", "msgs w/ faulty roots"},
	}
	c := cell{"alg5", cli.Params{N: 200, T: 3, S: 3}}
	segments := c.resolve().(alg5.Protocol).Segments(c.p.N, c.p.T)

	perSegment := func(ctx context.Context, adv adversary.Adversary, faulty *ident.Set) (map[string]int, error) {
		cfg := c.config(ident.V1, 13)
		cfg.Adversary, cfg.FaultyOverride = adv, faulty
		res, err := core.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if _, agErr := res.Decision(0, ident.V1); agErr != nil {
			return nil, agErr
		}
		out := make(map[string]int)
		for _, seg := range segments {
			total := 0
			for ph := seg.First; ph <= seg.Last && ph < len(res.Sim.Report.PerPhase); ph++ {
				total += res.Sim.Report.PerPhase[ph].MessagesCorrect
			}
			out[seg.Name] = total
		}
		return out, nil
	}

	// The clean run, the faulty-roots run and the sanity re-run are
	// independent; overlap them on the pool.
	var (
		clean, dirty map[string]int
		runTotal     int
	)
	err := jobs(ctx,
		func(ctx context.Context) error {
			var err error
			clean, err = perSegment(ctx, nil, nil)
			return err
		},
		func(ctx context.Context) error {
			// α = 25 for t=3: passives start at 25; corrupt three tree roots.
			roots := ident.NewSet(25, 28, 31)
			var err error
			dirty, err = perSegment(ctx, adversary.Silent{}, &roots)
			return err
		},
		func(ctx context.Context) error {
			res, err := core.Run(ctx, c.config(ident.V1, 13))
			if err != nil {
				return err
			}
			runTotal = res.Sim.Report.MessagesCorrect
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	for _, seg := range segments {
		span := fmt.Sprintf("%d..%d", seg.First, seg.Last)
		tbl.AddRow(seg.Name, span, clean[seg.Name], dirty[seg.Name])
	}
	// Sanity: the per-stage totals must add up to the run totals.
	sum := 0
	for _, v := range clean {
		sum += v
	}
	if sum != runTotal {
		tbl.Violate("stage totals %d != run total %d", sum, runTotal)
	}
	return tbl, tbl.Err()
}

// E14Scaling regenerates the scaling figure a modern evaluation would
// plot: messages versus n at fixed t for the baseline and the two optimal
// algorithms. The reproducible claim is the *shape*: Dolev-Strong's
// per-processor cost grows linearly with n (total Θ(n²)), while Algorithms
// 3 and 5 stay at a constant number of messages per processor (total
// O(n + t³) / O(n + t²)).
func E14Scaling(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E14",
		Title:   "Scaling figure — messages vs n at t=4: Θ(n²) baseline vs O(n) optimal algorithms",
		Columns: []string{"n", "dolev-strong", "ds msgs/n", "alg3(s=16)", "alg3 msgs/n", "alg5(s=4)", "alg5 msgs/n"},
	}
	const t = 4
	ns := []int{64, 128, 256, 512, 1024}
	// One run per (n, baseline) point — 15 independent runs.
	var cells []cell
	for _, n := range ns {
		cells = append(cells, baselines(n, t)...)
	}
	reports, err := faultFree(ctx, cells, 14)
	if err != nil {
		return nil, err
	}
	const perN = 3
	msgs := func(i, k int) int { return reports[i*perN+k].MessagesCorrect }
	ratio := func(i, k int) float64 { return float64(msgs(i, k)) / float64(ns[i]) }
	for i, n := range ns {
		tbl.AddRow(n, msgs(i, 0), fmt.Sprintf("%.1f", ratio(i, 0)), msgs(i, 1), fmt.Sprintf("%.2f", ratio(i, 1)),
			msgs(i, 2), fmt.Sprintf("%.2f", ratio(i, 2)))
	}
	// Shape checks: the baseline's per-processor cost must grow ~linearly
	// (≥ 8× over a 16× n range), each optimal algorithm's must stay within a
	// small constant factor.
	last := len(ns) - 1
	if ratio(last, 0) < 8*ratio(0, 0) {
		tbl.Violate("dolev-strong per-processor cost did not scale with n (%f -> %f)", ratio(0, 0), ratio(last, 0))
	}
	for k := 1; k < perN; k++ {
		if ratio(last, k) > 3*ratio(0, k) {
			tbl.Violate("%s per-processor cost grew with n (%f -> %f)", cells[k].resolve().Name(), ratio(0, k), ratio(last, k))
		}
	}
	return tbl, tbl.Err()
}
