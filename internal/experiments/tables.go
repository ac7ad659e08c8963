package experiments

import (
	"context"
	"fmt"

	"byzex/internal/adversary"
	"byzex/internal/audit"
	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/metrics"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg1"
	"byzex/internal/protocols/alg2"
	"byzex/internal/protocols/alg3"
	"byzex/internal/protocols/alg4"
	"byzex/internal/protocols/alg5"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/protocols/lsp"
	"byzex/internal/protocols/phaseking"
	"byzex/internal/protocols/strawman"
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
func promised(ctx context.Context, tbl *Table, name string, seed int64, cells []cli.Params, key func(cli.Params) []any) (*Table, error) {
	e := row(name)
	type cell struct{ msgs, phases int }
	out, err := sweep(ctx, len(cells), func(ctx context.Context, i int) (cell, error) {
		p, err := cli.Protocol(name, cells[i])
		if err != nil {
			return cell{}, err
		}
		msgs, _, phases, err := worstCase(ctx, p, cells[i].N, cells[i].T, seed)
		return cell{msgs, phases}, err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range out {
		p := cells[i]
		bound, pb := e.MsgUpper(p), e.Phases(p)
		tbl.AddRow(append(key(p), c.msgs, bound, c.phases, pb)...)
		if c.msgs > bound {
			tbl.Violate("n=%d t=%d s=%d: %d msgs > %d", p.N, p.T, p.S, c.msgs, bound)
		}
		if c.phases != pb {
			tbl.Violate("n=%d t=%d s=%d: phases %d != %d", p.N, p.T, p.S, c.phases, pb)
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
	type cell struct{ msgs, phases, held, minSigs int }
	cells, err := sweep(ctx, len(ts), func(ctx context.Context, i int) (cell, error) {
		t := ts[i]
		n := 2*t + 1
		msgs, _, phases, err := worstCase(ctx, alg2.Protocol{}, n, t, 2)
		if err != nil {
			return cell{}, err
		}

		// Proof check on a fresh fault-free run.
		scheme := sig.NewHMAC(n, 99)
		res, _, err := core.RunAndCheck(ctx, core.Config{
			Protocol: alg2.Protocol{}, N: n, T: t, Value: ident.V1, Scheme: scheme,
		})
		if err != nil {
			return cell{}, err
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
		return cell{msgs, phases, held, minSigs}, nil
	})
	if err != nil {
		return nil, err
	}
	alg2Row := row("alg2")
	for i, c := range cells {
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
	type cell struct{ msgs, p int }
	cells, err := sweep(ctx, len(ms), func(ctx context.Context, i int) (cell, error) {
		m := ms[i]
		n := m * m
		t := m / 2
		faulty := make(ident.Set)
		for i := 0; i < t; i++ {
			// Spread faults across rows to exercise the row-quorum logic.
			faulty.Add(ident.ProcID(i*m + (i % m)))
		}
		scheme := sig.NewHMAC(n, 4)
		res, err := core.Run(ctx, core.Config{
			Protocol: alg4.Protocol{}, N: n, T: t, Value: ident.V0,
			Scheme: scheme, Adversary: adversary.Silent{}, FaultyOverride: faulty, Seed: 4,
		})
		if err != nil {
			return cell{}, err
		}
		// Measure the mutually-exchanged set: correct processors that
		// received the signed value of every correct processor whose row
		// quorum held.
		return cell{res.Sim.Report.MessagesCorrect, measureExchangeSet(res, n, m, faulty)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
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
			if _, got := out[q]; !got {
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
// that undercuts the bound.
func E6Theorem1(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E6",
		Title:   "Theorem 1 — Ω(nt) signatures: audits and the split-brain replay attack",
		Columns: []string{"protocol", "n", "t", "min|A(p)|", "t+1", "sigs max(H,G)", "bound n(t+1)/4", "replay attack"},
	}
	cases := []struct {
		p    protocol.Protocol
		n, t int
	}{
		{alg1.Protocol{}, 9, 4},
		{alg1.Protocol{}, 33, 16},
		{alg2.Protocol{}, 9, 4},
		{dolevstrong.Protocol{}, 16, 4},
		{alg3.Protocol{S: 8}, 64, 4},
		{alg5.Protocol{S: 3}, 64, 3},
	}
	type cell struct {
		audit    *audit.SigAudit
		most     int
		attacked bool // replay attack succeeded against the protocol
	}
	cells, err := sweep(ctx, len(cases), func(ctx context.Context, i int) (cell, error) {
		c := cases[i]
		a, err := audit.AuditSignatures(ctx, c.p, c.n, c.t, nil)
		if err != nil {
			return cell{}, err
		}
		most := a.HSignatures
		if a.GSignatures > most {
			most = a.GSignatures
		}
		_, attErr := audit.ReplayAttack(ctx, c.p, c.n, c.t, nil)
		return cell{audit: a, most: most, attacked: attErr == nil}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range cells {
		c := cases[i]
		status := "not applicable (bound respected)"
		if r.attacked {
			status = "BROKE PROTOCOL"
			tbl.Violate("%s: replay attack applied to a correct protocol", c.p.Name())
		}
		tbl.AddRow(c.p.Name(), c.n, c.t, r.audit.MinAPSize, c.t+1, r.most, r.audit.Bound, status)
		if !r.audit.Satisfied() {
			tbl.Violate("%s: min|A(p)| %d < %d", c.p.Name(), r.audit.MinAPSize, c.t+1)
		}
		if r.most < r.audit.Bound {
			tbl.Violate("%s: %d sigs < bound %d", c.p.Name(), r.most, r.audit.Bound)
		}
	}
	// The strawman undercuts the bound; the attack must break it.
	strawCases := []struct{ n, t int }{{9, 3}, {16, 4}}
	type strawCell struct {
		audit     *audit.SigAudit
		most      int
		violation string
		broke     bool
	}
	strawCells, err := sweep(ctx, len(strawCases), func(ctx context.Context, i int) (strawCell, error) {
		c := strawCases[i]
		out, err := audit.ReplayAttack(ctx, strawman.Broadcast{}, c.n, c.t, nil)
		if err != nil {
			return strawCell{}, err
		}
		a, err := audit.AuditSignatures(ctx, strawman.Broadcast{}, c.n, c.t, nil)
		if err != nil {
			return strawCell{}, err
		}
		most := a.HSignatures
		if a.GSignatures > most {
			most = a.GSignatures
		}
		return strawCell{audit: a, most: most, violation: fmt.Sprint(out.Violation), broke: out.Broke()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range strawCells {
		c := strawCases[i]
		status := "survived (UNEXPECTED)"
		if r.broke {
			status = "broken: " + r.violation
		} else {
			tbl.Violate("strawman survived replay at n=%d t=%d", c.n, c.t)
		}
		tbl.AddRow("strawman-broadcast", c.n, c.t, r.audit.MinAPSize, c.t+1, r.most, r.audit.Bound, status)
	}
	return tbl, tbl.Err()
}

// E7Unauth reproduces Corollary 1: the unauthenticated baselines' message
// counts sit above n(t+1)/4.
func E7Unauth(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E7",
		Title:   "Corollary 1 — unauthenticated messages ≥ n(t+1)/4 (LSP and Phase King baselines)",
		Columns: []string{"protocol", "n", "t", "msgs(worst)", "lower bound n(t+1)/4", "phases"},
	}
	type row struct {
		p    protocol.Protocol
		n, t int
	}
	rows := []row{
		{lsp.Protocol{}, 4, 1}, {lsp.Protocol{}, 7, 2}, {lsp.Protocol{}, 10, 3}, {lsp.Protocol{}, 13, 4},
		{phaseking.Protocol{}, 5, 1}, {phaseking.Protocol{}, 9, 2}, {phaseking.Protocol{}, 13, 3}, {phaseking.Protocol{}, 21, 5},
	}
	type cell struct{ msgs, phases int }
	cells, err := sweep(ctx, len(rows), func(ctx context.Context, i int) (cell, error) {
		c := rows[i]
		msgs, _, phases, err := worstCase(ctx, c.p, c.n, c.t, 7)
		return cell{msgs, phases}, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range cells {
		c := rows[i]
		bound := core.MsgLowerBoundUnauth(c.n, c.t)
		tbl.AddRow(c.p.Name(), c.n, c.t, r.msgs, bound, r.phases)
		if r.msgs < bound {
			tbl.Violate("%s n=%d t=%d: %d msgs < lower bound %d", c.p.Name(), c.n, c.t, r.msgs, bound)
		}
	}
	return tbl, tbl.Err()
}

// E8Theorem2 reproduces Theorem 2: under the B-set starvation adversary the
// correct processors still push ⌈1+t/2⌉ messages into every starved member,
// and totals stay above max{(n-1)/2, (1+t/2)²}; the omission construction
// breaks the strawman.
func E8Theorem2(ctx context.Context) (*Table, error) {
	tbl := &Table{
		ID:      "E8",
		Title:   "Theorem 2 — Ω(n+t²) messages: starvation audit and omission attack",
		Columns: []string{"protocol", "n", "t", "min msgs into B", "need ⌈1+t/2⌉", "total msgs", "bound max{(n-1)/2,(1+t/2)²}"},
	}
	cases := []struct {
		p    protocol.Protocol
		n, t int
	}{
		{alg1.Protocol{}, 9, 4},
		{alg1.Protocol{}, 17, 8},
		{alg2.Protocol{}, 9, 4},
		{dolevstrong.Protocol{}, 16, 4},
	}
	// The starvation audits and the omission attack are all independent
	// runs; the attack is scheduled as one more job alongside the sweep.
	var out *audit.AttackOutcome
	audits := make([]*audit.MsgAudit, len(cases))
	work := make([]func(ctx context.Context) error, 0, len(cases)+1)
	for i := range cases {
		i := i
		work = append(work, func(ctx context.Context) error {
			a, err := audit.StarvationAudit(ctx, cases[i].p, cases[i].n, cases[i].t, nil)
			audits[i] = a
			return err
		})
	}
	work = append(work, func(ctx context.Context) error {
		var err error
		out, err = audit.OmissionAttack(ctx, strawman.Broadcast{}, 8, 2, nil)
		return err
	})
	if err := jobs(ctx, work...); err != nil {
		return nil, err
	}
	for i, a := range audits {
		c := cases[i]
		tbl.AddRow(c.p.Name(), c.n, c.t, a.MinReceived, a.RequiredPerMember, a.TotalMessages, a.Bound)
		if !a.Satisfied() {
			tbl.Violate("%s: starved member got %d < %d", c.p.Name(), a.MinReceived, a.RequiredPerMember)
		}
		if a.TotalMessages < a.Bound {
			tbl.Violate("%s: total %d < bound %d", c.p.Name(), a.TotalMessages, a.Bound)
		}
	}
	status := "survived (UNEXPECTED)"
	if out.Broke() {
		status = fmt.Sprintf("broken: %v", out.Violation)
	} else {
		tbl.Violate("strawman survived omission attack")
	}
	tbl.AddRow("strawman-broadcast", 8, 2, 0, 2, "-", status)
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
	type cell struct{ msgs, phases int }
	cells, err := sweep(ctx, len(alphas), func(ctx context.Context, i int) (cell, error) {
		s := (t + 2*alphas[i] - 1) / (2 * alphas[i])
		msgs, _, phases, err := worstCase(ctx, alg3.Protocol{S: s}, n, t, 9)
		return cell{msgs, phases}, err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range cells {
		alpha := alphas[i]
		s := (t + 2*alpha - 1) / (2 * alpha)
		ratio := float64(r.msgs) / float64(n)
		tbl.AddRow(alpha, n, t, s, r.msgs, fmt.Sprintf("%.1f", ratio), r.phases, core.TradeoffPhases(t, alpha))
		if r.msgs > row("alg3").MsgUpper(cli.Params{N: n, T: t, S: s}) {
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
	type cfg struct{ n, t int }
	cases := []cfg{{25, 2}, {64, 3}, {256, 4}, {1024, 4}}
	protosFor := func(c cfg) []protocol.Protocol {
		return []protocol.Protocol{
			dolevstrong.Protocol{},
			alg3.Protocol{S: 4 * c.t},
			alg5.Protocol{S: c.t},
		}
	}
	// Flatten to one job per (case, protocol) cell.
	const perCase = 3
	type cell struct{ msgs, sigs, phases int }
	cells, err := sweep(ctx, len(cases)*perCase, func(ctx context.Context, i int) (cell, error) {
		c := cases[i/perCase]
		p := protosFor(c)[i%perCase]
		msgs, sigs, phases, err := worstCase(ctx, p, c.n, c.t, 10)
		return cell{msgs, sigs, phases}, err
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		var dsMsgs, alg5Msgs int
		for pi, p := range protosFor(c) {
			r := cells[ci*perCase+pi]
			tbl.AddRow(c.n, c.t, p.Name(), r.msgs, r.sigs, r.phases)
			switch p.(type) {
			case dolevstrong.Protocol:
				dsMsgs = r.msgs
			case alg5.Protocol:
				alg5Msgs = r.msgs
			}
		}
		// The paper's headline: for n ≫ t the optimal algorithm sends far
		// fewer messages than the O(n²)-message baseline.
		if c.n >= 256 && alg5Msgs >= dsMsgs {
			tbl.Violate("n=%d t=%d: alg5 (%d) not below dolev-strong (%d)", c.n, c.t, alg5Msgs, dsMsgs)
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
	// (a) Algorithm 5 with and without the PoW gate; (b) relay vs grid
	// exchange across the crossover. Every run is independent, so the gate
	// pair and the per-crossover-point run pairs all go on the pool at once.
	const n, t, s = 200, 3, 3
	var gated, ungated int
	exchangeMsgs := func(ctx context.Context, p protocol.Protocol, nn, tt int) (int, error) {
		res, err := core.Run(ctx, core.Config{Protocol: p, N: nn, T: tt, Value: ident.V0, Seed: 11})
		if err != nil {
			return 0, err
		}
		return res.Sim.Report.MessagesCorrect, nil
	}
	crossover := []struct {
		m, t     int
		gridWins bool
	}{
		{8, 2, false}, {8, 16, true}, {16, 4, false}, {16, 32, true},
	}
	gridMsgs := make([]int, len(crossover))
	relayMsgs := make([]int, len(crossover))
	work := []func(ctx context.Context) error{
		func(ctx context.Context) error {
			var err error
			gated, _, _, err = worstCase(ctx, alg5.Protocol{S: s}, n, t, 11)
			return err
		},
		func(ctx context.Context) error {
			var err error
			ungated, _, _, err = worstCase(ctx, alg5.Protocol{S: s, DisablePoW: true}, n, t, 11)
			return err
		},
	}
	for i := range crossover {
		i := i
		work = append(work, func(ctx context.Context) error {
			nn := crossover[i].m * crossover[i].m
			var err error
			if gridMsgs[i], err = exchangeMsgs(ctx, alg4.Protocol{}, nn, crossover[i].t); err != nil {
				return err
			}
			relayMsgs[i], err = exchangeMsgs(ctx, alg4.RelayProtocol{}, nn, crossover[i].t)
			return err
		})
	}
	if err := jobs(ctx, work...); err != nil {
		return nil, err
	}
	tbl.AddRow("alg5 PoW gate", fmt.Sprintf("n=%d t=%d s=%d", n, t, s),
		gated, "gate disabled", ungated,
		fmt.Sprintf("gating saves %.1fx messages", float64(ungated)/float64(gated)))
	if ungated <= gated {
		tbl.Violate("disabling the PoW gate did not cost messages (%d vs %d)", ungated, gated)
	}
	if gated > row("alg5").MsgUpper(cli.Params{N: n, T: t, S: s}) {
		tbl.Violate("gated alg5 above its bound")
	}

	// (b) Relay vs grid exchange across the crossover.
	for i, c := range crossover {
		nn := c.m * c.m
		winner := "relay"
		if gridMsgs[i] < relayMsgs[i] {
			winner = "grid"
		}
		tbl.AddRow("exchange", fmt.Sprintf("N=%d t=%d", nn, c.t),
			gridMsgs[i], "relay", relayMsgs[i], winner+" wins")
		if (gridMsgs[i] < relayMsgs[i]) != c.gridWins {
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
	protos := []protocol.Protocol{
		dolevstrong.Protocol{},
		alg3.Protocol{S: 4 * t},
		alg5.Protocol{S: t},
	}
	reports, err := sweep(ctx, len(protos), func(ctx context.Context, i int) (metrics.Report, error) {
		res, _, err := core.RunAndCheck(ctx, core.Config{
			Protocol: protos[i], N: n, T: t, Value: ident.V1, Seed: 12,
		})
		if err != nil {
			return metrics.Report{}, err
		}
		return res.Sim.Report, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range protos {
		r := reports[i]
		avg := 0
		if r.MessagesCorrect > 0 {
			avg = r.BytesCorrect / r.MessagesCorrect
		}
		tbl.AddRow(p.Name(), n, t, r.MessagesCorrect, r.MaxMessageBytes, r.BytesCorrect, avg)
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
	const n, t, s = 200, 3, 3
	proto := alg5.Protocol{S: s}

	perSegment := func(ctx context.Context, adv adversary.Adversary, faulty ident.Set) (map[string]int, error) {
		res, err := core.Run(ctx, core.Config{
			Protocol: proto, N: n, T: t, Value: ident.V1,
			Adversary: adv, FaultyOverride: faulty, Seed: 13,
		})
		if err != nil {
			return nil, err
		}
		if _, agErr := res.Decision(0, ident.V1); agErr != nil {
			return nil, agErr
		}
		out := make(map[string]int)
		for _, seg := range proto.Segments(n, t) {
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
			var err error
			dirty, err = perSegment(ctx, adversary.Silent{}, ident.NewSet(25, 28, 31))
			return err
		},
		func(ctx context.Context) error {
			res, err := core.Run(ctx, core.Config{Protocol: proto, N: n, T: t, Value: ident.V1, Seed: 13})
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
	for _, seg := range proto.Segments(n, t) {
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
	// One sweep job per (n, protocol) point — 15 independent runs.
	protosFor := func() []protocol.Protocol {
		return []protocol.Protocol{dolevstrong.Protocol{}, alg3.Protocol{S: 16}, alg5.Protocol{S: 4}}
	}
	const perN = 3
	msgs, err := sweep(ctx, len(ns)*perN, func(ctx context.Context, i int) (int, error) {
		n, p := ns[i/perN], protosFor()[i%perN]
		res, _, err := core.RunAndCheck(ctx, core.Config{
			Protocol: p, N: n, T: t, Value: ident.V1, Seed: 14,
		})
		if err != nil {
			return 0, err
		}
		return res.Sim.Report.MessagesCorrect, nil
	})
	if err != nil {
		return nil, err
	}
	ratio := func(i, k int) float64 { return float64(msgs[i*perN+k]) / float64(ns[i]) }
	for i, n := range ns {
		tbl.AddRow(n, msgs[i*perN], fmt.Sprintf("%.1f", ratio(i, 0)), msgs[i*perN+1], fmt.Sprintf("%.2f", ratio(i, 1)),
			msgs[i*perN+2], fmt.Sprintf("%.2f", ratio(i, 2)))
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
			tbl.Violate("%s per-processor cost grew with n (%f -> %f)", protosFor()[k].Name(), ratio(0, k), ratio(last, k))
		}
	}
	return tbl, tbl.Err()
}
