// Package ic builds Interactive Consistency — every processor obtains a
// vector of all n private values — by running n instances of any Byzantine
// Agreement protocol in parallel, one per transmitter. This is the
// classical reduction from the paper's motivating literature (Pease,
// Shostak, Lamport [15]): the information-exchange cost is n times the
// underlying protocol's, so the paper's message-optimal algorithms
// directly yield message-optimal interactive consistency.
//
// Instances are multiplexed over the synchronous engine:
//
//   - identities are rotated so that instance k's transmitter (global
//     processor k) appears as local processor 0 to the base protocol;
//   - every payload carries its instance index;
//   - signatures are domain-separated per instance (the instance index is
//     mixed into the signed bytes), so a signature harvested in one
//     instance can never be replayed as part of another — without this, a
//     processor's signature over a bare value in instance k would be
//     indistinguishable from its transmitter signature in its own
//     instance.
package ic

import (
	"fmt"
	"sort"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sig"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// Protocol runs one Base instance per processor. Base must follow the
// package-wide convention that the transmitter is processor 0 (all
// protocols in this module do).
type Protocol struct {
	Base protocol.Protocol
}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (p Protocol) Name() string { return "ic(" + p.Base.Name() + ")" }

// Check implements protocol.Protocol.
func (p Protocol) Check(n, t int) error {
	if p.Base == nil {
		return fmt.Errorf("%w: ic needs a base protocol", protocol.ErrBadParams)
	}
	return p.Base.Check(n, t)
}

// Phases implements protocol.Protocol: all instances run in lock step.
func (p Protocol) Phases(n, t int) int { return p.Base.Phases(n, t) }

// NewRun implements protocol.Protocol: one Base builder per instance, each
// building its instance's n nodes, and the multiplexing nodes' instance
// lists, signers and verifiers carved from blocks sized to the run.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	if err := p.Check(n, t); err != nil {
		return nil, err
	}
	bases := make([]protocol.Builder, n)
	for k := range bases {
		base, err := p.Base.NewRun(n, t)
		if err != nil {
			return nil, err
		}
		bases[k] = base
	}
	inner := sig.NewBlocks[sim.Node](n*n, protocol.Overflow)
	signers := sig.NewBlocks[instSigner](n*n, protocol.Overflow)
	verifiers := sig.NewBlocks[instVerifier](n*n, protocol.Overflow)
	return protocol.Uniform(p, n, t, func(nd *node, cfg protocol.NodeConfig) error {
		if cfg.Transmitter != 0 {
			return fmt.Errorf("%w: ic assumes transmitter 0", protocol.ErrBadParams)
		}
		*nd = node{cfg: cfg, inner: inner.Carve(cfg.N)}
		for k, base := range bases {
			local := localID(cfg.ID, ident.ProcID(k), cfg.N)
			signer, verifier := &signers.Carve(1)[0], &verifiers.Carve(1)[0]
			*signer = instSigner{inner: cfg.Signer, local: local, inst: k}
			*verifier = instVerifier{inner: cfg.Verifier, n: cfg.N, inst: k}
			instCfg := protocol.NodeConfig{
				ID:          local,
				N:           cfg.N,
				T:           cfg.T,
				Transmitter: 0,
				Signer:      signer,
				Verifier:    verifier,
			}
			if local == 0 {
				// We are this instance's transmitter; our private value
				// rides in instance k = our own id. (Every processor
				// contributes Value; for non-transmitters of the outer run
				// the value is derived deterministically so tests can check
				// the vector.)
				instCfg.Value = OwnInput(cfg.ID, cfg.Value)
			}
			in, err := base.NewNode(instCfg)
			if err != nil {
				return fmt.Errorf("ic: instance %d: %w", k, err)
			}
			nd.inner[k] = in
		}
		return nil
	})
}

// OwnInput derives processor id's private input for the vector: the outer
// transmitter (processor 0) contributes the configured value; everybody
// else contributes a deterministic function of its identity, which keeps
// the expected vector checkable in tests and examples.
func OwnInput(id ident.ProcID, configured ident.Value) ident.Value {
	if id == 0 {
		return configured
	}
	return ident.Value(int64(id) % 2)
}

// localID rotates global identities so that instance k's transmitter
// (global k) becomes local 0.
func localID(global, k ident.ProcID, n int) ident.ProcID {
	return ident.ProcID((int(global) - int(k) + n) % n)
}

// globalID inverts localID.
func globalID(local, k ident.ProcID, n int) ident.ProcID {
	return ident.ProcID((int(local) + int(k)) % n)
}

// instSigner signs under a per-instance domain tag and reports the local
// identity to the base protocol. Like the node it belongs to, it is used by
// one goroutine, so the tagged message is built in one reused buffer.
type instSigner struct {
	inner sig.Signer
	local ident.ProcID
	inst  int
	buf   []byte
}

var _ sig.Signer = (*instSigner)(nil)

func (s *instSigner) ID() ident.ProcID { return s.local }

func (s *instSigner) Sign(msg []byte) []byte { return s.AppendSign(nil, msg) }

func (s *instSigner) AppendSign(dst, msg []byte) []byte {
	s.buf = domain(s.buf[:0], s.inst, msg)
	return s.inner.AppendSign(dst, s.buf)
}

// instVerifier maps local signer identities back to global ones and checks
// under the instance's domain tag, in a reused buffer like instSigner's.
type instVerifier struct {
	inner sig.Verifier
	n     int
	inst  int
	buf   []byte
}

var _ sig.Verifier = (*instVerifier)(nil)

func (v *instVerifier) Verify(local ident.ProcID, msg, sigBytes []byte) bool {
	if int(local) < 0 || int(local) >= v.n {
		return false
	}
	global := globalID(local, ident.ProcID(v.inst), v.n)
	v.buf = domain(v.buf[:0], v.inst, msg)
	return v.inner.Verify(global, v.buf, sigBytes)
}

// domain appends to dst msg prefixed with the instance index.
func domain(dst []byte, inst int, msg []byte) []byte {
	w := wire.WriterOn(dst)
	w.Uint(uint64(inst))
	return append(w.Bytes(), msg...)
}

// node multiplexes the n inner state machines.
type node struct {
	cfg   protocol.NodeConfig
	inner []sim.Node
}

var _ sim.Node = (*node)(nil)

func (nd *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	n := nd.cfg.N
	// Demultiplex the inbox by instance tag.
	perInst := make([][]sim.Envelope, n)
	for _, env := range inbox {
		r := wire.NewReader(env.Payload)
		inst := int(r.Uint())
		if r.Err() != nil || inst < 0 || inst >= n {
			continue
		}
		local := env
		local.Payload = r.Rest()
		local.From = localID(env.From, ident.ProcID(inst), n)
		perInst[inst] = append(perInst[inst], local)
	}
	// Mirror the engine's inbox contract within each instance: sorted by
	// (local) sender, stable.
	for _, msgs := range perInst {
		sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].From < msgs[j].From })
	}

	for k := 0; k < n; k++ {
		inst := k
		// Build a translated context: local identities in, global
		// envelopes out (instance-tagged payloads, translated recipients
		// and signer lists).
		local := localID(nd.cfg.ID, ident.ProcID(k), n)
		ictx := sim.NewContext(local, n, nd.cfg.T, 0, ctx.Phase(), phasesOf(ctx), func(e sim.Envelope) {
			slab := ctx.Slab()
			w := slab.Writer(wire.UintLen(uint64(inst)) + len(e.Payload))
			w.Uint(uint64(inst))
			payload := append(w.Bytes(), e.Payload...)
			signers := slab.Procs(len(e.Signers))
			for i, s := range e.Signers {
				signers[i] = globalID(s, ident.ProcID(inst), n)
			}
			// Errors surface through the outer context on the real send.
			_ = ctx.Send(globalID(e.To, ident.ProcID(inst), n), payload, signers, e.SigTotal)
		})
		if err := nd.inner[k].Step(ictx, perInst[k]); err != nil {
			return fmt.Errorf("ic: instance %d: %w", k, err)
		}
	}
	return nil
}

// phasesOf reconstructs the last sending phase for the translated context;
// the outer context enforces the real cut-off, so passing the current
// phase as the bound keeps inner sends flowing while the outer engine is
// still accepting them.
func phasesOf(ctx *sim.Context) int {
	// The outer engine rejects sends after its own last phase, so the
	// inner bound only needs to be ≥ the outer one.
	return ctx.Phase() + 1
}

// Decide returns the slot of instance 0 (the outer transmitter's value),
// which is what the engine-level agreement checks assert on.
func (nd *node) Decide() (ident.Value, bool) { return nd.inner[0].Decide() }

// Vector returns the full interactive-consistency vector: slot k holds the
// agreed value of processor k's instance.
func (nd *node) Vector() ([]ident.Value, bool) {
	out := make([]ident.Value, len(nd.inner))
	for k, in := range nd.inner {
		v, ok := in.Decide()
		if !ok {
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

// VectorHolder is implemented by ic nodes.
type VectorHolder interface {
	Vector() ([]ident.Value, bool)
}

var _ VectorHolder = (*node)(nil)
