package adversary_test

import (
	"context"
	"testing"

	"byzex/internal/adversary"
	"byzex/internal/core"
	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/protocols/dolevstrong"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

func TestCorruptSelections(t *testing.T) {
	if got := (adversary.Silent{}).Corrupt(7, 3, 0, nil); got.Len() != 3 || got.Has(0) {
		t.Fatalf("silent corrupt %v", got.Sorted())
	}
	if got := (adversary.Silent{}).Corrupt(7, 0, 0, nil); got.Len() != 0 {
		t.Fatal("t=0 corrupted someone")
	}
	// The transmitter is skipped even when it would be in the tail.
	if got := (adversary.Crash{}).Corrupt(4, 3, 3, nil); got.Has(3) || got.Len() != 3 {
		t.Fatalf("crash corrupt %v", got.Sorted())
	}
	if got := (adversary.SplitBrain{}).Corrupt(9, 2, 5, nil); got.Len() != 1 || !got.Has(5) {
		t.Fatalf("split-brain corrupt %v", got.Sorted())
	}
	if got := (adversary.SplitBrain{}).Corrupt(9, 0, 0, nil); got.Len() != 0 {
		t.Fatal("split-brain with t=0 corrupted transmitter")
	}
	b := ident.NewSet(3, 4)
	if got := (adversary.StarveB{B: b}).Corrupt(9, 4, 0, nil); got.Len() != 2 {
		t.Fatal("starve corrupt wrong")
	}
}

func TestNewStateCollectsSigners(t *testing.T) {
	scheme := sig.NewHMAC(5, 1)
	st, err := adversary.NewState(ident.NewSet(1, 3), scheme, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Signers) != 2 {
		t.Fatalf("signers %d", len(st.Signers))
	}
	if st.Signers[1].ID() != 1 || st.Signers[3].ID() != 3 {
		t.Fatal("wrong signers")
	}
	if _, err := adversary.NewState(ident.NewSet(99), scheme, 9); err == nil {
		t.Fatal("out-of-range corruption accepted")
	}
}

func TestSilentNodeSendsNothing(t *testing.T) {
	nd, err := adversary.Silent{}.NewNode(cfgFor(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	ctx := sim.NewContext(1, 3, 1, 0, 1, 5, func(sim.Envelope) { sent++ })
	if err := nd.Step(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if sent != 0 {
		t.Fatal("silent node sent")
	}
	if _, decided := nd.Decide(); decided {
		t.Fatal("silent node decided")
	}
}

func TestReplayNodePlaysSchedule(t *testing.T) {
	sched := &adversary.ReplaySchedule{
		Victim: 2,
		ToVictim: map[int][]adversary.ReplayEdge{
			1: {{To: 2, Label: []byte("h"), SigTotal: 1}},
		},
		ToOthers: map[int][]adversary.ReplayEdge{
			1: {{To: 1, Label: []byte("g"), SigTotal: 1}},
			2: {{To: 1, Label: []byte("g2"), SigTotal: 0}},
		},
	}
	adv := adversary.Replay{FaultySet: ident.NewSet(0), Schedules: map[ident.ProcID]*adversary.ReplaySchedule{0: sched}}
	nd, err := adv.NewNode(cfgFor(t, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sent []sim.Envelope
	step := func(phase int) {
		ctx := sim.NewContext(0, 3, 1, 0, phase, 5, func(e sim.Envelope) { sent = append(sent, e) })
		if err := nd.Step(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	step(1)
	step(2)
	step(3)
	if len(sent) != 3 {
		t.Fatalf("sent %d envelopes", len(sent))
	}
	if string(sent[0].Payload) != "h" || sent[0].To != 2 {
		t.Fatal("victim label wrong")
	}
	if string(sent[1].Payload) != "g" || string(sent[2].Payload) != "g2" {
		t.Fatal("other labels wrong")
	}

	// Missing schedule is an error.
	if _, err := adv.NewNode(cfgFor(t, 1), nil); err == nil {
		t.Fatal("node without schedule accepted")
	}
}

func TestStarveIgnoresFirstK(t *testing.T) {
	// The starve wrapper must drop exactly the first K messages from
	// outside B and everything from inside B.
	inner := &captureNode{}
	b := ident.NewSet(1, 5)
	adv := adversary.StarveB{B: b, IgnoreFirst: 2}
	env := &adversary.Env{Run: captureRun{inner}, State: nil}
	nd, err := adv.NewNode(cfgFor(t, 1), env)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(from ident.ProcID) sim.Envelope { return sim.Envelope{From: from, To: 1, Phase: 1} }
	ctx := sim.NewContext(1, 6, 2, 0, 1, 5, func(sim.Envelope) {})
	inbox := []sim.Envelope{mk(0), mk(5), mk(2), mk(3), mk(4)}
	if err := nd.Step(ctx, inbox); err != nil {
		t.Fatal(err)
	}
	// from-5 dropped (in B); 0 and 2 dropped (first two from outside B);
	// 3 and 4 delivered.
	if len(inner.got) != 2 || inner.got[0].From != 3 || inner.got[1].From != 4 {
		t.Fatalf("delivered %v", inner.got)
	}
}

// captureNode records its inbox.
type captureNode struct {
	got []sim.Envelope
}

func (c *captureNode) Step(_ *sim.Context, inbox []sim.Envelope) error {
	c.got = append(c.got, inbox...)
	return nil
}

func (c *captureNode) Decide() (ident.Value, bool) { return 0, true }

// captureRun hands out a fixed node.
type captureRun struct {
	node sim.Node
}

func (r captureRun) NewNode(protocol.NodeConfig) (sim.Node, error) { return r.node, nil }

func cfgFor(t *testing.T, id ident.ProcID) protocol.NodeConfig {
	t.Helper()
	scheme := sig.NewHMAC(8, 2)
	signer, err := scheme.Signer(id)
	if err != nil {
		t.Fatal(err)
	}
	return protocol.NodeConfig{
		ID: id, N: 8, T: 2, Transmitter: 0, Signer: signer, Verifier: scheme,
	}
}

func TestGarbageNodeFloodsButTolerated(t *testing.T) {
	// End-to-end: garbage nodes don't break Dolev-Strong and their traffic
	// is accounted as faulty.
	res, _, err := core.RunAndCheck(context.Background(), core.Config{
		Protocol: dolevstrong.Protocol{}, N: 7, T: 2, Value: ident.V1,
		Adversary: adversary.Garbage{PerPhase: 4}, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Report.MessagesFaulty == 0 {
		t.Fatal("garbage traffic not recorded")
	}
}
