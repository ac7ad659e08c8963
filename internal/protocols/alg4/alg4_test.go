package alg4_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/alg4"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/transport"
)

func runGrid(t *testing.T, n, tt int, adv adversary.Adversary, faulty *ident.Set) *core.Result {
	t.Helper()
	res, err := core.Run(context.Background(), core.Config{
		Protocol: alg4.Protocol{}, N: n, T: tt, Value: ident.V0,
		Adversary: adv, FaultyOverride: faulty, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// collected counts the values an exchange output holds.
func collected(out []sig.SignedBytes) int {
	n := 0
	for _, sb := range out {
		if len(sb.Chain) > 0 {
			n++
		}
	}
	return n
}

func TestCheckRequiresSquare(t *testing.T) {
	p := alg4.Protocol{}
	if err := p.Check(10, 1); err == nil {
		t.Fatal("non-square accepted")
	}
	if err := p.Check(16, 2); err != nil {
		t.Fatalf("16 rejected: %v", err)
	}
	if err := p.Check(16, 16); err == nil {
		t.Fatal("t=n accepted")
	}
}

func TestFaultFreeFullExchange(t *testing.T) {
	for _, m := range []int{2, 3, 4, 6} {
		n := m * m
		res := runGrid(t, n, 0, nil, nil)
		for i, nd := range res.Nodes {
			out := nd.(alg4.Exchanger).Output()
			if got := collected(out); got != n {
				t.Fatalf("m=%d: node %d collected %d/%d values", m, i, got, n)
			}
			for q, sb := range out {
				if !bytes.Equal(sb.Body, alg4.OwnValue(ident.ProcID(q))) {
					t.Fatalf("m=%d: node %d has wrong value for %v", m, i, q)
				}
			}
		}
		if got, bound := res.Sim.Report.MessagesCorrect, core.Alg4MsgUpperBound(m); got > bound {
			t.Fatalf("m=%d: %d msgs > %d", m, got, bound)
		}
	}
}

func TestMessageCountExact(t *testing.T) {
	// Fault-free: every processor sends m-1 messages in each of 3 phases.
	for _, m := range []int{3, 4, 5} {
		n := m * m
		res := runGrid(t, n, 0, nil, nil)
		want := 3 * (m - 1) * n
		if got := res.Sim.Report.MessagesCorrect; got != want {
			t.Fatalf("m=%d: %d msgs, want %d", m, got, want)
		}
	}
}

func TestLemma2GuaranteeUnderFaults(t *testing.T) {
	// Corrupt t processors concentrated in few rows; processors in rows
	// with < m/2 faults must still mutually exchange.
	m := 4
	n := m * m
	tt := 3
	faulty := ident.NewSet(0, 1, 5) // row 0 has 2 faults (≥ m/2), row 1 has 1
	res := runGrid(t, n, tt, adversary.Silent{}, &faulty)

	var pSet []ident.ProcID
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
			pSet = append(pSet, id)
		}
	}
	if len(pSet) < n-2*tt {
		t.Fatalf("candidate P too small: %d < %d", len(pSet), n-2*tt)
	}
	for _, p := range pSet {
		out := res.Nodes[p].(alg4.Exchanger).Output()
		for _, q := range pSet {
			if len(out[q].Chain) == 0 {
				t.Fatalf("processor %v missing value of %v", p, q)
			}
		}
	}
}

func TestGarbageToleration(t *testing.T) {
	// Garbage from faulty processors must not corrupt collected values.
	m := 4
	n := m * m
	res := runGrid(t, n, 2, adversary.Garbage{PerPhase: 8}, nil)
	for i, nd := range res.Nodes {
		if res.Faulty.Has(ident.ProcID(i)) {
			continue
		}
		out := nd.(alg4.Exchanger).Output()
		for i, sb := range out {
			q := ident.ProcID(i)
			if res.Faulty.Has(q) || len(sb.Chain) == 0 {
				continue
			}
			if !bytes.Equal(sb.Body, alg4.OwnValue(q)) {
				t.Fatalf("node %d holds forged value for %v", i, q)
			}
		}
	}
}

func TestGroupValidation(t *testing.T) {
	scheme := sig.NewHMAC(4, 1)
	s0, _ := scheme.Signer(0)
	if _, err := alg4.NewGroups(ident.Range(3)); err == nil {
		t.Fatal("non-square group accepted")
	}
	gs, err := alg4.NewGroups(ident.Range(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.New(9, nil, s0, scheme); err == nil {
		t.Fatal("outsider accepted")
	}
	if _, err := alg4.NewGroups([]ident.ProcID{0, 0, 1, 2}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

// capture hands out alg4 nodes and keeps them, so a test can look at the
// state of nodes a substrate built for itself.
type capture struct {
	alg4.Protocol
	mu    sync.Mutex
	nodes []sim.Node
}

func (c *capture) NewRun(n, t int) (protocol.Builder, error) {
	run, err := c.Protocol.NewRun(n, t)
	return captureRun{run, c}, err
}

// captureRun keeps each node its run builds.
type captureRun struct {
	protocol.Builder
	c *capture
}

func (r captureRun) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	nd, err := r.Builder.NewNode(cfg)
	r.c.mu.Lock()
	r.c.nodes = append(r.c.nodes, nd)
	r.c.mu.Unlock()
	return nd, err
}

// TestTCPPeersDecodeIntoTheirOwnSlabs runs the exchange over the TCP mesh,
// where every peer is a goroutine decoding the chains it receives into its
// processor's slab while the others do the same. Under -race (make check runs this
// package with it) any link storage two peers shared would be a reported
// race; the pointer check says the same without the detector: no link of one
// node's collected chains is a link of another's.
func TestTCPPeersDecodeIntoTheirOwnSlabs(t *testing.T) {
	const n = 16
	proto, scheme := &capture{}, sig.NewHMAC(n, 7)
	res, err := transport.RunCluster(context.Background(), core.Config{Protocol: proto, N: n, T: 0, Scheme: scheme, Seed: 7}, transport.Net{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != n || len(proto.nodes) != n {
		t.Fatalf("%d decisions from %d nodes, want %d", len(res.Decisions), len(proto.nodes), n)
	}
	owner := make(map[*sig.Link]int)
	for i, nd := range proto.nodes {
		out := nd.(alg4.Exchanger).Output()
		if got := collected(out); got != n {
			t.Fatalf("node %d collected %d/%d values", i, got, n)
		}
		for q, sb := range out {
			if err := sb.Verify(scheme); err != nil {
				t.Fatalf("node %d: value of %v: %v", i, q, err)
			}
			if prev, shared := owner[&sb.Chain[0]]; shared {
				t.Fatalf("nodes %d and %d hold the same link for %v", prev, i, q)
			}
			owner[&sb.Chain[0]] = i
		}
	}
}
