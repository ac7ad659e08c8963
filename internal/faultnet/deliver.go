package faultnet

import (
	"byzex/internal/ident"
	"byzex/internal/trace"
)

// Stash holds the content a plan delayed on its way to one receiver, between
// the phase it was sent in and the phase it is due. The zero value is ready
// to use; each receiver owns one for the length of a run.
type Stash[E any] struct {
	held []held[E]
}

// held is one delayed frame: msgs joins the delivery of sending phase due,
// directly behind whatever from sent in that phase.
type held[E any] struct {
	due  int
	from ident.ProcID
	msgs []E
}

// Deliver is the one place a fault plan touches traffic: it decides what
// receiver to sees of sending phase phase. frames[s] is the raw content
// sender s addressed to it in that phase (empty when s sent nothing or its
// frame never arrived); the result is appended to out and handed to the
// receiver's Step. Both substrates call it — the engine per live receiver
// before stepping, the TCP peer once its phase barrier closes — so they
// cannot disagree on a link's fate.
//
// Senders are walked in identity order, which is also the order of the
// result. Each live link's verdict is resolved once and applied: drop
// discards the frame, delay moves a copy into stash for phase+Delay, dup
// appends it twice, reorder appends it reversed. Content from stash that is
// due now follows the same sender's current content, in the order it was
// stashed. One fault-* event goes to sink per acted-on link — empty frames
// included, since the plan acts on the link, not on what it carried — so
// trace counters equal ExpectedCounters. Crashed senders and the receiver's
// own slot pass through untouched.
//
// The returned count is the number of frames whose content was withheld
// (dropped or delayed): the receiver's information gap, which the TCP
// substrate checks against the fault bound. Where Untouched holds the result
// is the plain concatenation of the frames, with no link looked at.
func Deliver[E any](p *Plan, sink trace.Sink, phase int, to ident.ProcID, frames [][]E, stash *Stash[E], out []E) ([]E, int) {
	named := p.names(phase)
	if !named && len(stash.held) == 0 {
		for _, frame := range frames {
			out = append(out, frame...)
		}
		return out, 0
	}
	withheld := 0
	for s, frame := range frames {
		from := ident.ProcID(s)
		var act Action
		if named && from != to && !p.Crashed(from, phase) {
			act = p.FrameAction(phase, from, to)
		}
		if act.Kind != ActNone && sink != nil {
			sink.Emit(trace.Event{Kind: act.Kind.event(), Phase: phase, From: from, To: to, Sigs: act.Delay})
		}
		switch act.Kind {
		case ActDrop:
			withheld++
		case ActDelay:
			withheld++
			if len(frame) > 0 {
				// Copy: the caller recycles the frame's backing array.
				stash.held = append(stash.held, held[E]{
					due: phase + act.Delay, from: from, msgs: append([]E(nil), frame...),
				})
			}
		case ActDup:
			out = append(append(out, frame...), frame...)
		case ActReorder:
			for i := len(frame) - 1; i >= 0; i-- {
				out = append(out, frame[i])
			}
		default:
			out = append(out, frame...)
		}
		for i := range stash.held {
			if h := &stash.held[i]; h.due == phase && h.from == from {
				out = append(out, h.msgs...)
			}
		}
	}
	if len(stash.held) > 0 {
		kept := stash.held[:0]
		for _, h := range stash.held {
			if h.due > phase {
				kept = append(kept, h)
			}
		}
		stash.held = kept
	}
	return out, withheld
}

// Untouched reports whether Deliver leaves sending phase phase as it was sent
// to the owner of stash: no directed or partition rule's window covers the
// phase and nothing delayed is waiting, so the result is the frames end to
// end and no event. A caller that already holds that concatenation (the
// engine's sender-sorted inbox) can keep it and skip the call. Crash rules do
// not count: a crashed sender's frames are empty and pass through anyway.
func Untouched[E any](p *Plan, phase int, stash *Stash[E]) bool {
	return len(stash.held) == 0 && !p.names(phase)
}

// event maps a resolved action to the trace kind that records it.
func (k ActionKind) event() trace.Kind {
	switch k {
	case ActDrop:
		return trace.KindFaultDrop
	case ActDelay:
		return trace.KindFaultDelay
	case ActDup:
		return trace.KindFaultDup
	case ActReorder:
		return trace.KindFaultReorder
	}
	return 0
}
