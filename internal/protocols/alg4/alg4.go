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
	// block of links now and then, not an allocation per entry. chains is
	// the scratch of a send's chain list.
	entries []sig.SignedBytes
	chains  []sig.Chain
}

// Groups builds the exchange states of one group's members in one run,
// carving every state and its scratch from blocks sized to the group.
type Groups struct {
	members protocol.Group
	g       grid
	states  sig.Blocks[Group]
	slots   sig.Blocks[sig.SignedBytes]
	chains  sig.Blocks[sig.Chain]
}

// NewGroups returns the builder of the given group's exchange states (its
// size must be a perfect square). The states keep members, so the caller
// must not write to it afterwards.
func NewGroups(members []ident.ProcID) (*Groups, error) {
	g, err := newGrid(len(members))
	if err != nil {
		return nil, err
	}
	group, err := protocol.NewGroup(members)
	if err != nil {
		return nil, err
	}
	n, m := len(members), int(g)
	return &Groups{
		members: group,
		g:       g,
		states:  sig.NewBlocks[Group](n, protocol.Overflow),
		slots:   sig.NewBlocks[sig.SignedBytes](n*slotsPerMember(n, m), protocol.Overflow),
		chains:  sig.NewBlocks[sig.Chain](n*(m-1)*m, protocol.Overflow),
	}, nil
}

// slotsPerMember is what one member's state holds when everybody is correct:
// collected, a row, a column of row reports, and one such report of reports.
func slotsPerMember(n, m int) int { return n + m + 2*(m-1)*m }

// New builds the exchange state for member me. value is the byte string
// this member contributes; the group keeps it, so the caller must not write
// to it afterwards. Reset starts the next exchange of the same group with a
// new value.
func (gs *Groups) New(me ident.ProcID, value []byte, signer sig.Signer, verifier sig.Verifier) (*Group, error) {
	mi, err := gs.members.IndexOf(me)
	if err != nil {
		return nil, err
	}
	n, m := gs.members.Len(), int(gs.g)
	block := gs.slots.Carve(slotsPerMember(n, m))
	carve := func(size int) []sig.SignedBytes {
		s := block[:0:size]
		block = block[size:]
		return s
	}
	gr := &gs.states.Carve(1)[0]
	*gr = Group{
		members:   gs.members,
		g:         gs.g,
		me:        mi,
		signer:    signer,
		verifier:  verifier,
		value:     value,
		collected: carve(n)[:n],
		m1:        carve(m),
		m2:        carve((m - 1) * m),
		entries:   carve((m - 1) * m),
		chains:    gs.chains.Carve((m - 1) * m)[:0],
	}
	return gr, nil
}

// Reset makes the group ready for a new exchange in which this member
// contributes value, on the storage of the last one. Output's slots are
// emptied, and the phases' scratch is recycled (sig.Recycle: poisoned in
// race builds), so a view of the last exchange kept past Reset is caught.
func (gr *Group) Reset(value []byte) {
	sig.Recycle(gr.m1[:cap(gr.m1)], sig.Poisoned)
	sig.Recycle(gr.m2[:cap(gr.m2)], sig.Poisoned)
	sig.Recycle(gr.entries[:cap(gr.entries)], sig.Poisoned)
	clear(gr.chains[:cap(gr.chains)])
	clear(gr.collected)
	gr.value, gr.m1, gr.m2, gr.chains = value, gr.m1[:0], gr.m2[:0], gr.chains[:0]
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

// chainsOf appends the entries' chains to dst.
func chainsOf(dst []sig.Chain, entries []sig.SignedBytes) []sig.Chain {
	for _, e := range entries {
		dst = append(dst, e.Chain)
	}
	return dst
}

// sendLine sends payload to the members at grid indices first, first+step,
// ... — a row or a column of the grid, walked in place — but this member.
func (gr *Group) sendLine(ctx *sim.Context, first, step int, payload []byte, chains ...sig.Chain) error {
	signers, total := protocol.Summarize(ctx, chains)
	for k := 0; k < int(gr.g); k++ {
		if j := first + k*step; j != gr.me {
			if err := ctx.Send(gr.members.Members()[j], payload, signers, total); err != nil {
				return err
			}
		}
	}
	return nil
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

	row, col := gr.me-gr.g.col(gr.me), gr.g.col(gr.me) // the first index of each line
	switch rel {
	case 0:
		own := slab.SignBytes(gr.signer, gr.value)
		gr.record(own)
		gr.m1 = append(gr.m1, own)
		return gr.sendLine(ctx, row, 1, encodeValue(slab, own), own.Chain)
	case 1:
		gr.chains = chainsOf(gr.chains[:0], gr.m1)
		return gr.sendLine(ctx, col, int(gr.g), encodeList(slab, gr.m1), gr.chains...)
	case 2:
		gr.chains = chainsOf(gr.chains[:0], gr.m2)
		return gr.sendLine(ctx, row, 1, encodeList(slab, gr.m2), gr.chains...)
	}
	return nil
}

// Output returns the collected values indexed by member position, in member
// order; a member whose value never arrived has an empty chain. Complete
// after relative step 3; the result is the group's own storage, emptied by
// Reset, and callers must not write to it.
func (gr *Group) Output() []sig.SignedBytes { return gr.collected }

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

// NewRun implements protocol.Protocol: the nodes' exchange states and own
// values are carved from blocks sized to the run.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	if err := p.Check(n, t); err != nil {
		return nil, err
	}
	groups, err := NewGroups(ident.Range(n))
	if err != nil {
		return nil, err
	}
	size := 0
	for id := range n {
		size += wire.IntLen(int64(id))
	}
	values := sig.NewBlocks[byte](size, protocol.Overflow)
	return protocol.Uniform(p, n, t, func(nd *node, cfg protocol.NodeConfig) error {
		value := appendOwnValue(values.Carve(wire.IntLen(int64(cfg.ID)))[:0], cfg.ID)
		gr, err := groups.New(cfg.ID, value, cfg.Signer, cfg.Verifier)
		nd.gr = gr
		return err
	})
}

// OwnValue is the standalone protocol's per-processor input: the canonical
// encoding of the processor's identity.
func OwnValue(id ident.ProcID) []byte {
	return appendOwnValue(make([]byte, 0, wire.IntLen(int64(id))), id)
}

// appendOwnValue appends id's OwnValue to dst.
func appendOwnValue(dst []byte, id ident.ProcID) []byte {
	w := wire.WriterOn(dst)
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

// Output exposes the exchange result: the group is the whole system, so
// member position i is processor i.
func (n *node) Output() []sig.SignedBytes { return n.gr.Output() }

// Exchanger is implemented by nodes exposing an exchange's output: the
// signed value collected from processor i at index i, its chain empty if
// none arrived.
type Exchanger interface {
	Output() []sig.SignedBytes
}

var _ Exchanger = (*node)(nil)
