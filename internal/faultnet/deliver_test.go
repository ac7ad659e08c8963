package faultnet

import (
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/trace"
)

// ev is the compact form of a fault event the table below compares:
// "kind phase from->to" plus "+d" for a delay's hold.
func ev(e trace.Event) string {
	s := fmt.Sprintf("%v %d %d->%d", e.Kind, e.Phase, int(e.From), int(e.To))
	if e.Kind == trace.KindFaultDelay {
		s += fmt.Sprintf("+%d", e.Sigs)
	}
	return s
}

// TestDeliver walks one receiver through consecutive sending phases per
// case. Frames are written sender by sender (index = sender id); the
// receiver keeps one stash across the case's phases, as a substrate does.
func TestDeliver(t *testing.T) {
	type step struct {
		phase    int
		frames   [][]string
		out      []string
		withheld int
		events   []string
	}
	cases := []struct {
		name  string
		spec  string
		to    ident.ProcID
		steps []step
	}{
		{
			name: "every verdict, and late content from two phases due together",
			spec: "drop=1->0@1;delay=2->0@1+2;delay=2->0@2+1;dup=1->0@3;reorder=3->0@3",
			steps: []step{
				{phase: 1, frames: [][]string{nil, {"a"}, {"x1", "x2"}, {"c"}},
					out: []string{"c"}, withheld: 2,
					events: []string{"fault-drop 1 1->0", "fault-delay 1 2->0+2"}},
				{phase: 2, frames: [][]string{nil, {"b"}, {"y"}, nil},
					out: []string{"b"}, withheld: 1,
					events: []string{"fault-delay 2 2->0+1"}},
				// Sender 2's current content first, then its late content in
				// stash order (phase 1's before phase 2's), then sender 3.
				{phase: 3, frames: [][]string{nil, {"p"}, {"z"}, {"r1", "r2"}},
					out:    []string{"p", "p", "z", "x1", "x2", "y", "r2", "r1"},
					events: []string{"fault-dup 3 1->0", "fault-reorder 3 3->0"}},
				{phase: 4, frames: [][]string{nil, {"q"}, nil, nil}, out: []string{"q"}},
			},
		},
		{
			// The plan rules on the link, not on what it carried: an empty
			// frame still yields its event and counts as withheld, but
			// leaves nothing behind to redeliver.
			name: "empty frames",
			spec: "drop=1->0@1;delay=2->0@1+1;dup=3->0@1;reorder=4->0@1",
			steps: []step{
				{phase: 1, frames: make([][]string, 5), withheld: 2,
					events: []string{"fault-drop 1 1->0", "fault-delay 1 2->0+1", "fault-dup 1 3->0", "fault-reorder 1 4->0"}},
				{phase: 2, frames: [][]string{nil, {"a"}, {"b"}, {"c"}, {"d"}}, out: []string{"a", "b", "c", "d"}},
			},
		},
		{
			// Formerly TestVeiled: drop and delay withhold, a crashed sender
			// is absent rather than withheld and draws no verdict.
			name: "withheld count", to: 2,
			spec: "crash=3@2;drop=0->2@1-2;delay=1->2@2+1;drop=3->2@2",
			steps: []step{
				{phase: 1, frames: [][]string{{"a"}, {"b"}, nil, {"c"}},
					out: []string{"b", "c"}, withheld: 1,
					events: []string{"fault-drop 1 0->2"}},
				{phase: 2, frames: [][]string{{"a"}, {"b"}, nil, nil}, withheld: 2,
					events: []string{"fault-drop 2 0->2", "fault-delay 2 1->2+1"}},
				{phase: 3, frames: make([][]string, 4), out: []string{"b"}},
			},
		},
		{
			// Content delayed before its sender crashed still arrives.
			name: "late content outlives a crashed sender",
			spec: "delay=1->0@1+2;crash=1@2",
			steps: []step{
				{phase: 1, frames: [][]string{nil, {"a"}, {"b"}}, out: []string{"b"}, withheld: 1,
					events: []string{"fault-delay 1 1->0+2"}},
				{phase: 2, frames: [][]string{nil, nil, {"c"}}, out: []string{"c"}},
				{phase: 3, frames: [][]string{nil, nil, {"d"}}, out: []string{"a", "d"}},
			},
		},
		{
			name: "partition cuts both directions", to: 3,
			spec: "partition=0,1|3@1",
			steps: []step{
				{phase: 1, frames: [][]string{{"a"}, {"b"}, {"c"}, nil}, out: []string{"c"}, withheld: 2,
					events: []string{"fault-drop 1 0->3", "fault-drop 1 1->3"}},
			},
		},
		{
			name: "nil plan concatenates in sender order",
			steps: []step{
				{phase: 1, frames: [][]string{{"a1", "a2"}, nil, {"c"}}, out: []string{"a1", "a2", "c"}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var plan *Plan
			if tc.spec != "" {
				plan = MustParse(tc.spec, 1)
			}
			var stash Stash[string]
			for _, st := range tc.steps {
				buf := trace.NewBuffer()
				out, withheld := Deliver(plan, buf, st.phase, tc.to, st.frames, &stash, nil)
				if !reflect.DeepEqual(out, st.out) {
					t.Errorf("phase %d: inbox %v, want %v", st.phase, out, st.out)
				}
				if withheld != st.withheld {
					t.Errorf("phase %d: withheld %d, want %d", st.phase, withheld, st.withheld)
				}
				var events []string
				for _, e := range buf.Events() {
					events = append(events, ev(e))
				}
				if !reflect.DeepEqual(events, st.events) {
					t.Errorf("phase %d: events %v, want %v", st.phase, events, st.events)
				}
			}
			if len(stash.held) != 0 {
				t.Errorf("stash still holds %d frames after the last phase", len(stash.held))
			}
		})
	}
}

// counting tallies fault events by kind.
type counting struct{ c Counters }

func (s *counting) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindFaultDrop:
		s.c.Drops++
	case trace.KindFaultDelay:
		s.c.Delays++
	case trace.KindFaultDup:
		s.c.Dups++
	case trace.KindFaultReorder:
		s.c.Reorders++
	}
}

// TestDeliverEventsMatchExpectedCounters is the accounting property the
// scenario matrix relies on, over plans nobody hand-picked: for specs grown
// by MutateSpec, calling Deliver the way a substrate does — every sending
// phase, every receiver still alive at the delivery step — emits exactly the
// events ExpectedCounters predicts from the plan alone.
func TestDeliverEventsMatchExpectedCounters(t *testing.T) {
	const n, phases = 6, 5
	rng := mrand.New(mrand.NewSource(23))
	frames := make([][]int, n)
	for chain := 0; chain < 40; chain++ {
		spec := Spec{}
		for grow := 0; grow < 8; grow++ {
			spec = MutateSpec(spec, rng, n, phases)
			seed := rng.Int63()
			plan, err := Compile(spec, seed)
			if err != nil {
				t.Fatalf("MutateSpec produced %q: %v", FormatSpec(spec), err)
			}
			var sink counting
			stash := make([]Stash[int], n)
			for ph := 1; ph <= phases; ph++ {
				for r := 0; r < n; r++ {
					to := ident.ProcID(r)
					if plan.Crashed(to, ph+1) {
						continue
					}
					Deliver(plan, &sink, ph, to, frames, &stash[r], nil)
				}
			}
			want := plan.ExpectedCounters(n, phases)
			want.Crashes = 0 // the halt is the substrate's event, not Deliver's
			if sink.c != want {
				t.Fatalf("spec %q seed %d: Deliver emitted %+v, ExpectedCounters %+v",
					FormatSpec(spec), seed, sink.c, want)
			}
		}
	}
}

// TestDeliverInertPlanAllocatesNothing pins the hot-path promise: with no
// link rule to apply — a nil plan, or one that only crashes processors — the
// call is a concatenation into the caller's buffer.
func TestDeliverInertPlanAllocatesNothing(t *testing.T) {
	frames := [][]int{{1, 2}, nil, {3}, {4, 5, 6}}
	out := make([]int, 0, 16)
	var stash Stash[int]
	sink := &counting{}
	for name, plan := range map[string]*Plan{"nil": nil, "crash-only": MustParse("crash=1@2", 1)} {
		allocs := testing.AllocsPerRun(100, func() {
			out, _ = Deliver(plan, sink, 3, 0, frames, &stash, out[:0])
		})
		if allocs != 0 {
			t.Errorf("%s plan: %v allocs per call, want 0", name, allocs)
		}
		if len(out) != 6 {
			t.Errorf("%s plan: delivered %v", name, out)
		}
	}
}

// TestUntouchedIsPlainConcatenation is what lets the engine keep its inbox
// and skip Deliver: over plans grown by MutateSpec, wherever Untouched holds
// for a (sending phase, receiver), no link of that phase draws a verdict and
// Deliver returns the frames end to end, emits nothing and stashes nothing. A
// phase behind a delay rule's window is not untouched while the delayed
// content is still waiting.
func TestUntouchedIsPlainConcatenation(t *testing.T) {
	const n, phases = 6, 5
	rng := mrand.New(mrand.NewSource(29))
	frames := make([][]int, n)
	var whole []int
	for s := range frames {
		frames[s] = []int{10 * s, 10*s + 1}
		whole = append(whole, frames[s]...)
	}
	untouched, touched := 0, 0
	for chain := 0; chain < 40; chain++ {
		spec := Spec{}
		for grow := 0; grow < 8; grow++ {
			spec = MutateSpec(spec, rng, n, phases)
			plan := MustCompile(spec, rng.Int63())
			stash := make([]Stash[int], n)
			for ph := 1; ph <= phases+2; ph++ {
				for r := 0; r < n; r++ {
					to := ident.ProcID(r)
					var sink counting
					if !Untouched(plan, ph, &stash[r]) {
						touched++
						Deliver(plan, &sink, ph, to, frames, &stash[r], nil)
						continue
					}
					untouched++
					for s := 0; s < n; s++ {
						if act := plan.FrameAction(ph, ident.ProcID(s), to); act.Kind != ActNone {
							t.Fatalf("spec %q: phase %d is untouched, yet %d->%d draws %+v", FormatSpec(spec), ph, s, r, act)
						}
					}
					out, withheld := Deliver(plan, &sink, ph, to, frames, &stash[r], nil)
					if !reflect.DeepEqual(out, whole) || withheld != 0 || sink.c != (Counters{}) || len(stash[r].held) != 0 {
						t.Fatalf("spec %q phase %d to %d: delivered %v (withheld %d, events %+v)", FormatSpec(spec), ph, r, out, withheld, sink.c)
					}
				}
			}
		}
	}
	if untouched == 0 || touched == 0 {
		t.Fatalf("degenerate: %d untouched and %d touched deliveries", untouched, touched)
	}

	plan := MustParse("delay=1->0@1+2", 1)
	var stash Stash[int]
	Deliver(plan, nil, 1, 0, frames, &stash, nil)
	if Untouched(plan, 2, &stash) {
		t.Fatal("phase 2 untouched with phase 1's delayed frame still waiting")
	}
	Deliver(plan, nil, 2, 0, frames, &stash, nil)
	if out, _ := Deliver(plan, nil, 3, 0, frames, &stash, nil); len(out) != len(whole)+2 || !Untouched(plan, 4, &stash) {
		t.Fatalf("phase 3 delivered %v; phase 4 untouched: %v", out, Untouched(plan, 4, &stash))
	}
}
