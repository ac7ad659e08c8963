// Package lsp implements the classical unauthenticated oral-messages
// algorithm OM(t) of Lamport, Shostak and Pease (the paper's reference
// [14]) via exponential information gathering (EIG). It is the module's
// unauthenticated baseline for Corollary 1: with n > 3t it reaches
// Byzantine Agreement in t+1 phases while sending Θ(n²·t) messages (each
// phase every processor broadcasts one batched relay message; the paper's
// reference [10] achieves O(nt + t³), but only the Ω(nt) lower bound — the
// reproducible claim — is evaluated against this baseline).
//
// EIG: each processor maintains a tree of reports indexed by paths of
// distinct processor identities starting at the transmitter. In phase 1 the
// transmitter broadcasts its value; in phase k every processor relays every
// path of length k-1 it learned, extending the path by itself at the
// receivers. Decisions take a recursive majority over the tree with default
// 0.
package lsp

import (
	"fmt"
	"slices"
	"sort"

	"byzex/internal/ident"
	"byzex/internal/protocol"
	"byzex/internal/sim"
	"byzex/internal/wire"
)

// Protocol is the OM(t) baseline.
type Protocol struct{}

var _ protocol.Protocol = Protocol{}

// Name implements protocol.Protocol.
func (Protocol) Name() string { return "lsp-om" }

// Check implements protocol.Protocol: oral messages require n > 3t.
func (Protocol) Check(n, t int) error {
	if t < 0 || n <= 3*t || n < 2 {
		return fmt.Errorf("%w: lsp requires n > 3t (got n=%d t=%d)", protocol.ErrBadParams, n, t)
	}
	return nil
}

// Phases implements protocol.Protocol.
func (Protocol) Phases(_, t int) int { return t + 1 }

// NewRun implements protocol.Protocol.
func (p Protocol) NewRun(n, t int) (protocol.Builder, error) {
	return protocol.Uniform(p, n, t, func(nd *node, cfg protocol.NodeConfig) error {
		*nd = node{cfg: cfg, tree: make(map[string]ident.Value)}
		return nil
	})
}

type node struct {
	cfg protocol.NodeConfig
	// tree maps an encoded path (sequence of ProcIDs starting with the
	// transmitter) to the value reported along it.
	tree map[string]ident.Value
	// frontier holds the paths learned in the previous phase, to be
	// relayed this phase.
	frontier []string
}

var _ sim.Node = (*node)(nil)

// pathKey encodes a path of processor ids as a compact string map key.
func pathKey(path []ident.ProcID) string {
	var buf [64]byte
	w := wire.WriterOn(buf[:0])
	w.Procs(path)
	return string(w.Bytes())
}

// decodePath reverses pathKey.
func decodePath(key string) ([]ident.ProcID, error) {
	r := wire.NewReader([]byte(key))
	ps := r.Procs()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ps, nil
}

// encodeReports returns the (path, value) pairs of reports as one payload
// carved from ctx's slab.
func encodeReports(ctx *sim.Context, reports []string, values map[string]ident.Value) []byte {
	size := wire.UintLen(uint64(len(reports)))
	for _, key := range reports {
		size += wire.BytesFieldLen(len(key)) + wire.IntLen(int64(values[key]))
	}
	w := ctx.Slab().Writer(size)
	w.Uint(uint64(len(reports)))
	for _, key := range reports {
		w.BytesField([]byte(key))
		w.Value(values[key])
	}
	return w.Bytes()
}

func (n *node) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	phase := ctx.Phase()
	tr := n.cfg.Transmitter

	if n.cfg.IsTransmitter() {
		if phase == 1 {
			key := pathKey([]ident.ProcID{tr})
			return protocol.Broadcast(ctx, encodeReports(ctx, []string{key}, map[string]ident.Value{key: n.cfg.Value}))
		}
		return nil
	}

	// Absorb reports sent during the previous phase: a pair (σ, v) from
	// sender q is stored under σ∘q, provided σ has the right length
	// (phase-1), starts at the transmitter, consists of distinct ids, and
	// does not already contain q or us.
	var learned []string
	for _, env := range inbox {
		r := wire.NewReader(env.Payload)
		cnt := r.Len()
		if r.Err() != nil {
			continue
		}
		for i := 0; i < cnt; i++ {
			key := string(r.BytesField())
			v := r.Value()
			if r.Err() != nil {
				break
			}
			path, err := decodePath(key)
			if err != nil {
				continue
			}
			if !validPath(path, phase-1, tr, env.From, n.cfg.ID) {
				continue
			}
			// The transmitter's own root report [tr] is stored as-is; every
			// relayed path is extended by its sender.
			ext := path
			if !(env.From == tr && len(path) == 1) {
				ext = append(append([]ident.ProcID(nil), path...), env.From)
			}
			extKey := pathKey(ext)
			if _, dup := n.tree[extKey]; dup {
				continue
			}
			n.tree[extKey] = v
			learned = append(learned, extKey)
		}
	}
	sort.Strings(learned)

	// Relay everything learned during the previous phase, within t+1
	// phases.
	n.frontier = learned
	if phase >= 2 && phase <= ctx.T()+1 && len(n.frontier) > 0 {
		return protocol.Broadcast(ctx, encodeReports(ctx, n.frontier, n.tree))
	}
	return nil
}

// validPath checks a relayed path: length matches the sending phase, starts
// at the transmitter, all ids distinct, and the extension by the sender
// stays a valid path (sender not already on it, receiver not on it).
//
// Special case: the transmitter's own phase 1 broadcast carries σ = [tr]
// whose extension would duplicate the transmitter; it is accepted as the
// root report when it comes directly from the transmitter.
func validPath(path []ident.ProcID, sentPhase int, tr, from, me ident.ProcID) bool {
	if len(path) == 0 || path[0] != tr {
		return false
	}
	if from == tr && sentPhase == 1 {
		return len(path) == 1
	}
	if len(path) != sentPhase-1 {
		return false
	}
	// A path is at most t+1 long and its ids come off the wire, so a
	// pairwise scan checks distinctness without building a set of them.
	for i, p := range path {
		if slices.Contains(path[:i], p) {
			return false
		}
	}
	return !slices.Contains(path, from) && !slices.Contains(path, me) && from != me
}

// Decide resolves the EIG tree by recursive majority with default 0.
func (n *node) Decide() (ident.Value, bool) {
	if n.cfg.IsTransmitter() {
		return n.cfg.Value, true
	}
	return n.resolve([]ident.ProcID{n.cfg.Transmitter}), true
}

// resolve computes the value of a tree node: leaves (paths of length t+1,
// or paths with no recorded children) take their stored value; inner nodes
// take the majority of their children's resolved values, breaking ties and
// absences with the default 0.
func (n *node) resolve(path []ident.ProcID) ident.Value {
	key := pathKey(path)
	stored := n.tree[key] // the default V0 when nothing arrived
	if len(path) == n.cfg.T+1 {
		return stored
	}
	onPath := ident.NewSet(path...)
	counts := make(map[ident.Value]int)
	children := 0
	for id := 0; id < n.cfg.N; id++ {
		q := ident.ProcID(id)
		if q == n.cfg.ID || onPath.Has(q) {
			continue
		}
		child := append(append([]ident.ProcID(nil), path...), q)
		counts[n.resolve(child)]++
		children++
	}
	// Strict majority wins; otherwise default. Our own stored value for
	// the path participates as one extra vote (we "heard" it directly);
	// when nothing arrived that vote is the default, so every receiver
	// takes its majority over the same n−|σ| votes.
	counts[stored]++
	children++
	var best ident.Value
	bestCnt := -1
	for _, v := range sortedValues(counts) {
		if counts[v] > bestCnt {
			best, bestCnt = v, counts[v]
		}
	}
	if bestCnt*2 > children {
		return best
	}
	return ident.V0
}

func sortedValues(m map[ident.Value]int) []ident.Value {
	out := make([]ident.Value, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
