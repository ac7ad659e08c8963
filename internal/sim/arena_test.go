package sim_test

import (
	"context"
	"fmt"
	mrand "math/rand"
	"reflect"
	"sort"
	"testing"

	"byzex/internal/faultnet"
	"byzex/internal/ident"
	"byzex/internal/sim"
)

// sendLog is what the scripted nodes of one run did, in the order the engine
// made them do it: every accepted send, and every inbox as it was handed over.
type sendLog struct {
	sends   []sim.Envelope
	inboxes map[[2]int][]sim.Envelope // (receiver, phase) -> inbox
	peeks   map[[2]int]int            // (receiver, phase) -> sends logged before its step
}

// scriptNode sends what its script says and logs what it is given.
type scriptNode struct {
	id     ident.ProcID
	log    *sendLog
	script [][]sim.Envelope // script[phase-1]: To, Payload, Signers, SigTotal
}

func (s *scriptNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	key := [2]int{int(s.id), ctx.Phase()}
	s.log.inboxes[key] = append([]sim.Envelope(nil), inbox...)
	s.log.peeks[key] = len(s.log.sends)
	if ctx.Phase() > len(s.script) {
		return nil
	}
	for _, e := range s.script[ctx.Phase()-1] {
		if err := ctx.Send(e.To, e.Payload, e.Signers, e.SigTotal); err != nil {
			if e.To == s.id {
				continue // the script tries self-sends; the engine refuses them
			}
			return err
		}
		e.From, e.Phase = s.id, ctx.Phase()
		s.log.sends = append(s.log.sends, e)
	}
	return nil
}

func (s *scriptNode) Decide() (ident.Value, bool) { return 0, true }

// randomScript draws one processor's sends: per phase one of silence, a
// broadcast, a burst at one receiver (self included), or scattered sends.
func randomScript(rng *mrand.Rand, id ident.ProcID, n, phases int) [][]sim.Envelope {
	script := make([][]sim.Envelope, phases)
	msg := func(to int, k int) sim.Envelope {
		return sim.Envelope{
			To: ident.ProcID(to), Payload: []byte(fmt.Sprintf("%d>%d#%d", id, to, k)),
			Signers: []ident.ProcID{id}, SigTotal: 1 + k,
		}
	}
	for ph := range script {
		switch rng.Intn(4) {
		case 0:
		case 1:
			for to := 0; to < n; to++ {
				script[ph] = append(script[ph], msg(to, 0))
			}
		case 2:
			to := rng.Intn(n)
			for k := 0; k < 1+rng.Intn(2*n); k++ {
				script[ph] = append(script[ph], msg(to, k))
			}
		default:
			for k := 0; k < rng.Intn(3*n); k++ {
				script[ph] = append(script[ph], msg(rng.Intn(n), k))
			}
		}
	}
	return script
}

// TestInboxesMatchPerReceiverReference drives the engine with seeded random
// send patterns — self-sends, bursts at one receiver, broadcasts, rushing
// adversaries, fault plans grown by faultnet.MutateSpec — and checks every
// inbox it hands over against the plain definition: the previous phase's
// sends to that receiver, appended in submission order and stable-sorted by
// sender, then passed through faultnet.Deliver with the receiver's own stash;
// under rushing, followed by what the correct processors sent it this phase.
func TestInboxesMatchPerReceiverReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := mrand.New(mrand.NewSource(seed))
		n, phases := 2+rng.Intn(40), 1+rng.Intn(6)
		cfg := sim.Config{N: n, T: n, Phases: phases, Rushing: seed%3 == 0}
		if cfg.Rushing {
			cfg.Faulty = ident.NewSet()
			for i := 0; i < 1+rng.Intn(3); i++ {
				cfg.Faulty.Add(ident.ProcID(rng.Intn(n)))
			}
		}
		if seed%2 == 0 {
			var spec faultnet.Spec
			for i := 0; i < 1+rng.Intn(6); i++ {
				spec = faultnet.MutateSpec(spec, rng, n, phases)
			}
			plan, err := faultnet.Compile(spec, seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			cfg.Faults = plan
			// Validate refuses a crash victim outside the faulty set.
			for id := ident.ProcID(0); int(id) < n; id++ {
				if plan.CrashPhase(id) != 0 {
					cfg.Faulty = cfg.Faulty.Union(ident.NewSet(id))
				}
			}
		}
		log := &sendLog{inboxes: make(map[[2]int][]sim.Envelope), peeks: make(map[[2]int]int)}
		nodes := make([]sim.Node, n)
		for i := range nodes {
			nodes[i] = &scriptNode{id: ident.ProcID(i), log: log, script: randomScript(rng, ident.ProcID(i), n, phases)}
		}
		eng := new(sim.Engine)
		err := eng.Reset(cfg, nodes)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		stash := make([]faultnet.Stash[sim.Envelope], n)
		for phase := 1; phase <= phases+1; phase++ {
			for r := 0; r < n; r++ {
				to := ident.ProcID(r)
				got, stepped := log.inboxes[[2]int{r, phase}]
				if cfg.Faults.Crashed(to, phase) {
					if stepped {
						t.Fatalf("seed %d: crashed processor %d stepped at phase %d", seed, r, phase)
					}
					continue
				}
				var want []sim.Envelope
				for _, e := range log.sends {
					if e.To == to && e.Phase == phase-1 {
						want = append(want, e)
					}
				}
				sort.SliceStable(want, func(i, j int) bool { return want[i].From < want[j].From })
				if cfg.Faults != nil && phase > 1 {
					frames := make([][]sim.Envelope, n)
					for _, e := range want {
						frames[e.From] = append(frames[e.From], e)
					}
					want, _ = faultnet.Deliver(cfg.Faults, nil, phase-1, to, frames, &stash[r], nil)
				}
				if cfg.Rushing && cfg.Faulty.Has(to) {
					for _, e := range log.sends[:log.peeks[[2]int{r, phase}]] {
						if e.To == to && e.Phase == phase {
							want = append(want, e)
						}
					}
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d (n=%d rushing=%v plan=%v): processor %d phase %d got\n%v\nwant\n%v",
						seed, n, cfg.Rushing, cfg.Faults != nil, r, phase, got, want)
				}
			}
		}
	}
}
