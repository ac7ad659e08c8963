// Package alg4 implements Algorithm 4 of the paper (Theorem 6): a
// three-phase mutual exchange primitive for N = m² processors that sends at
// most 3(m-1)m² = O(N^1.5) messages and guarantees that a set P of at least
// N - 2t correct processors (those whose grid row contains fewer than m/2
// faulty processors) mutually receive each other's signed values.
//
//	Phase 1:  p(i,j) signs its value and sends it along its row.
//	Phase 2:  p(i,j) forwards the collected row values down its column.
//	Phase 3:  p(i,j) forwards the collected column reports along its row.
//
// The Group type is embeddable: Algorithm 5 runs one instance per block
// among its α active processors to exchange the F(p, x) lists.
package alg4

import (
	"fmt"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// payload tags distinguish the three message shapes.
const (
	tagValue byte = 0xA1 // phase 1: one signed value
	tagList  byte = 0xA2 // phases 2 and 3: a list of signed values
)

// Group is one participant's state for a single Algorithm 4 exchange.
type Group struct {
	members protocol.Group
	g       grid
	me      int

	signer   sig.Signer
	verifier sig.Verifier

	value []byte

	// collected[i] is member i's signed value, as verified from any of the
	// three phases; its chain is empty until one arrives.
	collected []sig.SignedBytes
	// m1 keeps phase 1 receipts (own row) for the phase 2 forward; m2
	// keeps phase 2 receipts (own column) for the phase 3 forward.
	m1 []sig.SignedBytes
	m2 []sig.SignedBytes

	// entries is the scratch one payload's entries are parsed into, their
	// chains carved from the stepping context's slab: a payload costs a
	// block of links now and then, not an allocation per entry.
	entries []sig.SignedBytes
}

// NewGroup builds the exchange state for member me of the given group
// (whose size must be a perfect square). value is the byte string this
// member contributes; the group keeps it, and members, so the caller must not
// write to either afterwards.
func NewGroup(members []ident.ProcID, me ident.ProcID, value []byte, signer sig.Signer, verifier sig.Verifier) (*Group, error) {
	g, err := newGrid(len(members))
	if err != nil {
		return nil, err
	}
	group, err := protocol.NewGroup(members)
	if err != nil {
		return nil, err
	}
	mi, err := group.IndexOf(me)
	if err != nil {
		return nil, err
	}
	return &Group{
		members:   group,
		g:         g,
		me:        mi,
		signer:    signer,
		verifier:  verifier,
		value:     value,
		collected: make([]sig.SignedBytes, len(members)),
		// What the three phases hold when everybody is correct: a row, a
		// column of row reports, and one such report of reports.
		m1:      make([]sig.SignedBytes, 0, int(g)),
		m2:      make([]sig.SignedBytes, 0, int(g-1)*int(g)),
		entries: make([]sig.SignedBytes, 0, int(g-1)*int(g)),
	}, nil
}

// Phases is the number of sending phases of one exchange (3); outputs are
// complete one delivery step later (relative step 3).
const Phases = 3

// record stores a verified signed value under its signer's index, unless one
// is there already, and reports whether it did.
func (gr *Group) record(sb sig.SignedBytes) bool {
	idx, _ := gr.members.Index(sb.Chain[0].Signer)
	if len(gr.collected[idx].Chain) > 0 {
		return false
	}
	gr.collected[idx] = sb
	return true
}

// acceptEntry validates one signed-value entry: exactly one chain link, the
// signer a group member, the signature valid.
func (gr *Group) acceptEntry(sb sig.SignedBytes) bool {
	if len(sb.Chain) != 1 {
		return false
	}
	if _, ok := gr.members.Index(sb.Chain[0].Signer); !ok {
		return false
	}
	return sb.Verify(gr.verifier) == nil
}

// parse decodes a payload into its verified entries (none for foreign or
// malformed payloads). The result is gr.entries, valid until the next call,
// and every chain decoded on the way is carved from slab: a caller that keeps
// nothing of a payload rewinds slab to where it was.
func (gr *Group) parse(slab *sig.Slab, payload []byte) []sig.SignedBytes {
	if len(payload) == 0 {
		return nil
	}
	r := wire.NewReader(payload[1:])
	out := gr.entries[:0]
	switch payload[0] {
	case tagValue:
		if sb := sig.DecodeSignedBytes(r, slab); r.Finish() == nil && gr.acceptEntry(sb) {
			out = append(out, sb)
		}
	case tagList:
		n := r.Len()
		for i := 0; i < n && r.Err() == nil; i++ {
			if sb := sig.DecodeSignedBytes(r, slab); r.Err() == nil && gr.acceptEntry(sb) {
				out = append(out, sb)
			}
		}
		if r.Finish() != nil {
			out = out[:0]
		}
	}
	gr.entries = out[:0]
	return out
}

// encodeValue encodes one entry as a tagValue payload carved from slab.
func encodeValue(slab *sig.Slab, sb sig.SignedBytes) []byte {
	w := slab.Writer(1 + sb.EncodedLen())
	w.Byte(tagValue)
	sb.Encode(&w)
	return w.Bytes()
}

// encodeList encodes entries as a tagList payload carved from slab.
func encodeList(slab *sig.Slab, entries []sig.SignedBytes) []byte {
	size := 1 + wire.UintLen(uint64(len(entries)))
	for _, e := range entries {
		size += e.EncodedLen()
	}
	w := slab.Writer(size)
	w.Byte(tagList)
	w.Uint(uint64(len(entries)))
	for _, e := range entries {
		e.Encode(&w)
	}
	return w.Bytes()
}

func chainsOf(entries []sig.SignedBytes) []sig.Chain {
	out := make([]sig.Chain, len(entries))
	for i, e := range entries {
		out[i] = e.Chain
	}
	return out
}

// sendTo sends payload to the group members at the given grid indices.
func (gr *Group) sendTo(ctx *sim.Context, indices []int, payload []byte, chains ...sig.Chain) error {
	ids := make([]ident.ProcID, len(indices))
	for i, idx := range indices {
		ids[i] = gr.members.Members()[idx]
	}
	return protocol.SendToAll(ctx, ids, payload, chains...)
}

// Step advances the exchange. rel is the relative step: 0, 1, 2 send the
// three phases; 3 is the final collection step (no sends). inbox must hold
// the messages delivered at this step; foreign messages are ignored, so
// embedders may pass a mixed inbox.
func (gr *Group) Step(ctx *sim.Context, inbox []sim.Envelope, rel int) error {
	// Collect whatever this step delivered. A payload that adds nothing —
	// at step 3 every row mate but the first repeats the same column reports
	// — gives its chains' links back.
	slab := ctx.Slab()
	for _, env := range inbox {
		idx, ok := gr.members.Index(env.From)
		if !ok {
			continue
		}
		mark := slab.Mark()
		entries := gr.parse(slab, env.Payload)
		kept := false
		switch rel {
		case 1: // phase 1 receipts: a single value from a row mate
			if gr.g.row(idx) == gr.g.row(gr.me) && len(entries) == 1 && entries[0].Chain[0].Signer == env.From {
				gr.m1 = append(gr.m1, entries[0])
				gr.record(entries[0])
				kept = true
			}
		case 2: // phase 2 receipts: a row report from a column mate
			if gr.g.col(idx) == gr.g.col(gr.me) {
				gr.m2 = append(gr.m2, entries...)
				for _, e := range entries {
					gr.record(e)
				}
				kept = len(entries) > 0
			}
		case 3: // phase 3 receipts: column reports from row mates
			if gr.g.row(idx) == gr.g.row(gr.me) {
				for _, e := range entries {
					if gr.record(e) {
						kept = true
					}
				}
			}
		}
		if !kept {
			slab.Rewind(mark)
		}
	}

	switch rel {
	case 0:
		own := slab.SignBytes(gr.signer, gr.value)
		gr.record(own)
		gr.m1 = append(gr.m1, own)
		return gr.sendTo(ctx, gr.g.rowMates(gr.me), encodeValue(slab, own), own.Chain)
	case 1:
		payload := encodeList(slab, gr.m1)
		return gr.sendTo(ctx, gr.g.colMates(gr.me), payload, chainsOf(gr.m1)...)
	case 2:
		payload := encodeList(slab, gr.m2)
		return gr.sendTo(ctx, gr.g.rowMates(gr.me), payload, chainsOf(gr.m2)...)
	}
	return nil
}

// Collected returns the collected values in member order, for an embedder
// that needs them in a deterministic order and not by identity.
func (gr *Group) Collected() []sig.SignedBytes {
	out := make([]sig.SignedBytes, 0, len(gr.collected))
	for _, sb := range gr.collected {
		if len(sb.Chain) > 0 {
			out = append(out, sb)
		}
	}
	return out
}

// Output returns the collected values: member identity -> signed value.
// Complete after relative step 3.
func (gr *Group) Output() map[ident.ProcID]sig.SignedBytes {
	out := make(map[ident.ProcID]sig.SignedBytes, len(gr.collected))
	for idx, sb := range gr.collected {
		if len(sb.Chain) > 0 {
			out[gr.members.Members()[idx]] = sb
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Standalone protocol wrapper: every processor contributes the byte
// encoding of its own identity as its value; tests inspect Output via the
// Exchanger interface. (Algorithm 4 is an exchange primitive, not Byzantine
// Agreement; Decide trivially returns 0.)

// Protocol runs one Algorithm 4 exchange over the whole system.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "alg4" }

// Check implements protocol.Protocol: n must be a perfect square.
func (Protocol) Check(n, t int) error {
	if _, err := newGrid(n); err != nil {
		return err
	}
	if t < 0 || t >= n {
		return fmt.Errorf("%w: t=%d out of range", protocol.ErrBadParams, t)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (Protocol) Phases(int, int) int { return Phases }

// NewNode implements protocol.Protocol.
func (Protocol) NewNode(cfg protocol.NodeConfig) (sim.Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	value := OwnValue(cfg.ID)
	gr, err := NewGroup(ident.Range(cfg.N), cfg.ID, value, cfg.Signer, cfg.Verifier)
	if err != nil {
		return nil, err
	}
	return &node{gr: gr}, nil
}

// OwnValue is the standalone protocol's per-processor input: the canonical
// encoding of the processor's identity.
func OwnValue(id ident.ProcID) []byte {
	w := wire.WriterOn(make([]byte, 0, wire.IntLen(int64(id))))
	w.Proc(id)
	return w.Bytes()
}

type node struct {
	gr *Group
}

var _ sim.Node = (*node)(nil)

func (n *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	return n.gr.Step(ctx, inbox, ctx.Phase()-1)
}

func (n *node) Decide() (ident.Value, bool) { return ident.V0, true }

// Output exposes the exchange result for tests and callers.
func (n *node) Output() map[ident.ProcID]sig.SignedBytes { return n.gr.Output() }

// Exchanger is implemented by nodes exposing an Algorithm 4 output.
type Exchanger interface {
	Output() map[ident.ProcID]sig.SignedBytes
}

var _ Exchanger = (*node)(nil)
