package sim_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/sig"
	"byzex/internal/sim"
)

// echoNode broadcasts its id at phase 1 and records everything received.
type echoNode struct {
	id       ident.ProcID
	received []sim.Envelope
}

func (e *echoNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	e.received = append(e.received, inbox...)
	if ctx.Phase() == 1 {
		for i := 0; i < ctx.N(); i++ {
			to := ident.ProcID(i)
			if to == e.id {
				continue
			}
			if err := ctx.Send(to, []byte{byte(e.id)}, nil, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *echoNode) Decide() (ident.Value, bool) { return ident.Value(e.id), true }

func newEngine(t *testing.T, n, phases int) (*sim.Engine, []*echoNode) {
	t.Helper()
	nodes := make([]sim.Node, n)
	echoes := make([]*echoNode, n)
	for i := range nodes {
		echoes[i] = &echoNode{id: ident.ProcID(i)}
		nodes[i] = echoes[i]
	}
	eng := new(sim.Engine)
	err := eng.Reset(sim.Config{N: n, T: 0, Phases: phases}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return eng, echoes
}

func TestDeliveryNextPhase(t *testing.T) {
	eng, echoes := newEngine(t, 3, 1)
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Messages sent at phase 1 arrive at the (delivery-only) step 2.
	for i, e := range echoes {
		if len(e.received) != 2 {
			t.Fatalf("node %d received %d messages, want 2", i, len(e.received))
		}
		for _, env := range e.received {
			if env.Phase != 1 {
				t.Fatalf("node %d got message from phase %d", i, env.Phase)
			}
		}
	}
	if res.Report.MessagesCorrect != 6 {
		t.Fatalf("message count %d, want 6", res.Report.MessagesCorrect)
	}
}

func TestInboxSortedBySender(t *testing.T) {
	eng, echoes := newEngine(t, 5, 1)
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, e := range echoes {
		for i := 1; i < len(e.received); i++ {
			if e.received[i].From < e.received[i-1].From {
				t.Fatal("inbox not sorted by sender")
			}
		}
	}
}

// lateSender tries to send during the delivery-only step.
type lateSender struct {
	errSeen error
}

func (l *lateSender) Step(ctx *sim.Context, _ []sim.Envelope) error {
	if ctx.Phase() == 2 { // one past Phases=1
		l.errSeen = ctx.Send(0, []byte("late"), nil, 0)
	}
	return nil
}

func (l *lateSender) Decide() (ident.Value, bool) { return 0, true }

func TestSendAfterFinalPhaseRejected(t *testing.T) {
	late := &lateSender{}
	eng := new(sim.Engine)
	err := eng.Reset(sim.Config{N: 2, T: 0, Phases: 1}, []sim.Node{&echoNode{id: 0}, late})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(late.errSeen, sim.ErrSendClosed) {
		t.Fatalf("late send error = %v, want ErrSendClosed", late.errSeen)
	}
}

// selfSender tries to message itself.
type selfSender struct {
	errSeen error
}

func (s *selfSender) Step(ctx *sim.Context, _ []sim.Envelope) error {
	if ctx.Phase() == 1 {
		s.errSeen = ctx.Send(ctx.ID(), []byte("self"), nil, 0)
	}
	return nil
}

func (s *selfSender) Decide() (ident.Value, bool) { return 0, true }

func TestSelfSendRejected(t *testing.T) {
	self := &selfSender{}
	eng := new(sim.Engine)
	err := eng.Reset(sim.Config{N: 2, T: 0, Phases: 1}, []sim.Node{self, &echoNode{id: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(self.errSeen, sim.ErrBadRecipient) {
		t.Fatalf("self send error = %v, want ErrBadRecipient", self.errSeen)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []sim.Config{
		{N: 0, Phases: 1},
		{N: 2, T: -1, Phases: 1},
		{N: 2, T: 0, Phases: -1},
		{N: 2, T: 0, Phases: 1, Transmitter: 5},
		{N: 3, T: 1, Phases: 1, Faulty: ident.NewSet(0, 1)}, // more faulty than t
		{N: 3, T: 3, Phases: 1, Faulty: ident.NewSet(7)},    // out of range
		{N: 3, T: 1, Phases: 2, Faults: crash1(3)},          // crash victim judged correct
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := cases[len(cases)-1].Validate(); !errors.Is(err, sim.ErrCrashNotFaulty) {
		t.Errorf("got %v, want ErrCrashNotFaulty", err)
	}
	for _, good := range []sim.Config{
		{N: 3, T: 1, Phases: 2, Faulty: ident.NewSet(2)},
		{N: 3, T: 1, Phases: 2, Faulty: ident.NewSet(1), Faults: crash1(3)},
		{N: 3, T: 1, Phases: 2, Faults: crash1(4)}, // fires after the run's last step
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
}

// crash1 is a plan that halts processor 1 at the start of phase at.
func crash1(at int) *faultnet.Plan {
	return faultnet.MustCompile(faultnet.Spec{Rules: []faultnet.Rule{{Kind: faultnet.KCrash, Proc: 1, AtPhase: at}}}, 1)
}

func TestNodeCountMismatch(t *testing.T) {
	if err := new(sim.Engine).Reset(sim.Config{N: 3, Phases: 1}, []sim.Node{&echoNode{}}); err == nil {
		t.Fatal("accepted wrong node count")
	}
	if err := new(sim.Engine).Reset(sim.Config{N: 1, Phases: 1}, []sim.Node{nil}); err == nil {
		t.Fatal("accepted nil node")
	}
}

// failNode errors at a chosen phase.
type failNode struct {
	at int
}

func (f *failNode) Step(ctx *sim.Context, _ []sim.Envelope) error {
	if ctx.Phase() == f.at {
		return fmt.Errorf("deliberate failure")
	}
	return nil
}

func (f *failNode) Decide() (ident.Value, bool) { return 0, false }

func TestNodeErrorAborts(t *testing.T) {
	eng := new(sim.Engine)
	err := eng.Reset(sim.Config{N: 2, Phases: 3}, []sim.Node{&failNode{at: 2}, &echoNode{id: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("node error not propagated")
	}
}

// TestResetAfterAbortedRun: what a failed run sent in its last phase is not
// delivered after a Reset — the next run sees only its own traffic.
func TestResetAfterAbortedRun(t *testing.T) {
	eng := new(sim.Engine)
	err := eng.Reset(sim.Config{N: 2, Phases: 1}, []sim.Node{&echoNode{id: 0}, &failNode{at: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("node error not propagated")
	}
	echoes := []*echoNode{{id: 0}, {id: 1}}
	if err := eng.Reset(sim.Config{N: 2, Phases: 1}, []sim.Node{echoes[0], echoes[1]}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range echoes {
		if len(e.received) != 1 {
			t.Errorf("node %d received %d messages after Reset, want 1", i, len(e.received))
		}
	}
	if res.Report.MessagesCorrect != 2 {
		t.Errorf("report counts %d messages, want 2", res.Report.MessagesCorrect)
	}
}

func TestContextCancellation(t *testing.T) {
	eng, _ := newEngine(t, 2, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSendFilterDropsSilently(t *testing.T) {
	filtered := &filterNode{}
	sink := &echoNode{id: 1}
	eng := new(sim.Engine)
	err := eng.Reset(sim.Config{N: 3, Phases: 1}, []sim.Node{filtered, sink, &echoNode{id: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, env := range sink.received {
		if env.From == 0 {
			t.Fatal("filtered send reached recipient")
		}
	}
}

type filterNode struct{}

func (f *filterNode) Step(ctx *sim.Context, _ []sim.Envelope) error {
	if ctx.Phase() != 1 {
		return nil
	}
	fctx := ctx.WithSendFilter(new(sim.Context), func(to ident.ProcID) bool { return to != 1 })
	if err := fctx.Send(1, []byte("dropped"), nil, 0); err != nil {
		return err
	}
	return fctx.Send(2, []byte("kept"), nil, 0)
}

func (f *filterNode) Decide() (ident.Value, bool) { return 0, true }

func TestFaultyMetricsSplit(t *testing.T) {
	nodes := []sim.Node{&echoNode{id: 0}, &echoNode{id: 1}, &echoNode{id: 2}}
	eng := new(sim.Engine)
	err := eng.Reset(sim.Config{N: 3, T: 1, Phases: 1, Faulty: ident.NewSet(2)}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MessagesCorrect != 4 || res.Report.MessagesFaulty != 2 {
		t.Fatalf("split %d/%d, want 4/2", res.Report.MessagesCorrect, res.Report.MessagesFaulty)
	}
	if len(res.Decisions) != 3 || !res.Faulty.Has(2) {
		t.Fatalf("decisions %v faulty %v, want all 3 recorded and p2 marked", res.Decisions, res.Faulty.Sorted())
	}
}

func TestEnvelopeClone(t *testing.T) {
	orig := sim.Envelope{From: 1, To: 2, Phase: 3, Payload: []byte{1, 2}, Signers: []ident.ProcID{1}, SigTotal: 1}
	cl := orig.Clone()
	cl.Payload[0] = 9
	cl.Signers[0] = 9
	if orig.Payload[0] == 9 || orig.Signers[0] == 9 {
		t.Fatal("clone shares storage")
	}
}

// keeperNode sends one message at phase 1 and — against the Node contract,
// to look at what the engine does with the array — keeps the inbox it is
// handed at phase 2.
type keeperNode struct {
	id   ident.ProcID
	kept []sim.Envelope
	late []sim.Envelope // kept, copied at phase 4
}

func (k *keeperNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	switch ctx.Phase() {
	case 1:
		return ctx.Send((k.id+1)%ident.ProcID(ctx.N()), []byte("payload"), []ident.ProcID{k.id}, 1)
	case 2:
		k.kept = inbox
	case 4:
		k.late = append([]sim.Envelope(nil), k.kept...)
	}
	return nil
}

func (k *keeperNode) Decide() (ident.Value, bool) { return 0, true }

// TestDeliveredEnvelopesAreReleased pins that the engine zeroes an inbox once
// its phase is over: the recycled array must not keep delivered payloads
// reachable until some later message happens to overwrite the slot — also
// when a fault plan built the inbox (a dup rule on phase 1 doubles each
// message).
func TestDeliveredEnvelopesAreReleased(t *testing.T) {
	dup := faultnet.MustCompile(faultnet.Spec{Rules: []faultnet.Rule{
		{Kind: faultnet.KDup, From: ident.None, To: ident.None, First: 1, Last: 1, Prob: 1}}}, 1)
	for _, tc := range []struct {
		plan *faultnet.Plan
		want int
	}{{nil, 1}, {dup, 2}} {
		nodes := []sim.Node{&keeperNode{id: 0}, &keeperNode{id: 1}, &keeperNode{id: 2}}
		eng := new(sim.Engine)
		err := eng.Reset(sim.Config{N: 3, T: 0, Phases: 4, Faults: tc.plan}, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			k := nd.(*keeperNode)
			if len(k.kept) != tc.want {
				t.Fatalf("plan %v: processor %d got %d messages at phase 2, want %d", tc.plan != nil, k.id, len(k.kept), tc.want)
			}
			for _, e := range k.late {
				if e.Payload != nil || e.Signers != nil {
					t.Errorf("plan %v: processor %d: phase-2 inbox still holds %+v at phase 4", tc.plan != nil, k.id, e)
				}
			}
		}
	}
}

// TestKeptInboxReadsPoisonInRaceBuilds pins the use-after-phase check on the
// engine's envelope storage, the blocks an inbox is carved from and the one a
// fault plan delivers into: in a race build an envelope kept past its phase
// reads from and to ident.None, elsewhere it is zeroed.
func TestKeptInboxReadsPoisonInRaceBuilds(t *testing.T) {
	dup := faultnet.MustCompile(faultnet.Spec{Rules: []faultnet.Rule{
		{Kind: faultnet.KDup, From: ident.None, To: ident.None, First: 1, Last: 1, Prob: 1}}}, 1)
	for _, plan := range []*faultnet.Plan{nil, dup} {
		nodes := []sim.Node{&keeperNode{id: 0}, &keeperNode{id: 1}, &keeperNode{id: 2}}
		eng := new(sim.Engine)
		if err := eng.Reset(sim.Config{N: 3, T: 0, Phases: 4, Faults: plan}, nodes); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			k := nd.(*keeperNode)
			if len(k.late) == 0 {
				t.Fatalf("plan %v: processor %d kept nothing", plan != nil, k.id)
			}
			for _, e := range k.late {
				if poisoned := e.From == ident.None && e.To == ident.None; poisoned != sig.Poison {
					t.Errorf("plan %v, race build %v: processor %d's kept envelope reads %+v", plan != nil, sig.Poison, k.id, e)
				}
			}
		}
	}
}
