package transport_test

import (
	"context"
	"testing"
	"time"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sim"
	"byzex/internal/transport"
)

// arrival is one envelope handed to a Step: who sent it in which phase, and
// the receiving Step's phase.
type arrival struct {
	from              ident.ProcID
	sentIn, steppedIn int
}

// timedProtocol is a registry protocol whose nodes log when they entered and
// left each Step and what their inboxes held. A cell is written by the one
// goroutine stepping that node and read after Run returned.
type timedProtocol struct {
	protocol.Protocol
	start, end [][]time.Time // [processor][phase]
	arrivals   [][]arrival   // by receiver
}

func (p *timedProtocol) NewRun(n, t int) (protocol.Builder, error) {
	run, err := p.Protocol.NewRun(n, t)
	return timedRun{run, p}, err
}

// timedRun wraps each node its run builds in a timedNode.
type timedRun struct {
	protocol.Builder
	p *timedProtocol
}

func (r timedRun) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	node, err := r.Builder.NewNode(cfg)
	return &timedNode{Node: node, p: r.p, id: cfg.ID}, err
}

// reset starts a fresh log for the next instance.
func (p *timedProtocol) reset(n, t int) {
	wall := p.Phases(n, t) + 2 // phases are 1-based and one past the last delivers
	p.start, p.end = make([][]time.Time, n), make([][]time.Time, n)
	for i := 0; i < n; i++ {
		p.start[i], p.end[i] = make([]time.Time, wall), make([]time.Time, wall)
	}
	p.arrivals = make([][]arrival, n)
}

type timedNode struct {
	sim.Node
	p  *timedProtocol
	id ident.ProcID
}

func (n *timedNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	k := ctx.Phase()
	n.p.start[n.id][k] = time.Now()
	for _, e := range inbox {
		n.p.arrivals[n.id] = append(n.p.arrivals[n.id], arrival{e.From, e.Phase, k})
	}
	err := n.Node.Step(ctx, inbox)
	n.p.end[n.id][k] = time.Now()
	return err
}

// TestLinkDelayNeverEarlyPerLink is Net.LinkDelay's contract where it lives
// now, on the link: no envelope is handed to its receiver's Step earlier than
// the delay after the Step that sent it returned — frames go out at once and
// the receivers serve the delay — and an instance takes the delay for each
// phase boundary it steps past. Per warm mesh, fault-free and under a crash
// and a delay rule: two epochs of alg1-multi, which never halts, so the whole
// schedule runs and the phase-2 relays (processor 2's delayed a phase by the
// delay rule) are checked link by link; then one of alg1, which ends at
// phase 2 once every correct processor has halted.
func TestLinkDelayNeverEarlyPerLink(t *testing.T) {
	const (
		n, f  = 7, 3
		delay = 3 * time.Millisecond
	)
	timed := func(name string) *timedProtocol {
		inner, err := cli.Protocol(name, cli.Params{N: n, T: f, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return &timedProtocol{Protocol: inner}
	}
	multi, halting := timed("alg1-multi"), timed("alg1")
	phases := multi.Phases(n, f)
	ctx := context.Background()
	for _, spec := range []string{"", "crash=1@2", "delay=2->*@1-2+1"} {
		t.Run("faults="+spec, func(t *testing.T) {
			m, err := transport.NewMesh(ctx, n, transport.Net{PhaseTimeout: 10 * time.Second, LinkDelay: delay})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			cfg := core.Config{N: n, T: f, Value: ident.V1}
			crashed := 0 // receivers crashed before phase 2's step
			if spec == "crash=1@2" {
				crashed = 1
			}
			if spec != "" {
				cfg.Faults = mustPlan(t, spec, 1)
				override := cfg.Faults.Affected(n)
				cfg.FaultyOverride = &override
			}
			for epoch, run := range []struct {
				proto         *timedProtocol
				end, minLinks int
			}{
				{multi, phases + 1, n - 1},
				{multi, phases + 1, n - 1},
				{halting, 2, n - 1 - crashed}, // the transmitter's broadcast, to every live receiver
			} {
				epoch++
				proto := run.proto
				cfg.Protocol, cfg.Seed = proto, int64(epoch)
				proto.reset(n, f)
				began := time.Now()
				res, err := m.Run(ctx, cfg)
				wall := time.Since(began)
				if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				checkAgreement(t, res, ident.V1)
				if res.EndPhase != run.end {
					t.Errorf("epoch %d ended at phase %d, want %d", epoch, res.EndPhase, run.end)
				}
				if floor := time.Duration(res.EndPhase-1) * delay; wall < floor {
					t.Errorf("epoch %d took %v, under (end phase - 1) × delay = %v", epoch, wall, floor)
				}
				links, late := 0, 0
				for to, inbox := range proto.arrivals {
					for _, a := range inbox {
						links++
						if a.from == 2 && a.steppedIn > a.sentIn+1 {
							late++
						}
						sent, stepped := proto.end[a.from][a.sentIn], proto.start[to][a.steppedIn]
						if sent.IsZero() {
							t.Fatalf("epoch %d: %d got an envelope of phase %d from %d, which never finished that step", epoch, to, a.sentIn, a.from)
						}
						if got := stepped.Sub(sent); got < delay {
							t.Errorf("epoch %d: %d→%d sent in phase %d reached Step(%d) after %v < %v",
								epoch, a.from, to, a.sentIn, a.steppedIn, got, delay)
						}
					}
				}
				if links < run.minLinks {
					t.Fatalf("epoch %d: only %d envelopes delivered", epoch, links)
				}
				if spec == "delay=2->*@1-2+1" && proto == multi && late == 0 {
					t.Errorf("epoch %d: none of processor 2's delayed envelopes was delivered", epoch)
				}
			}
		})
	}
}
