// Package ident defines the primitive identifiers shared by every other
// package in the module: processor identities, agreement values, and sets of
// processor identities.
//
// Identities are dense — 0..n-1 — so a set of them is a bitset (Set) and a
// table of them is a slice indexed by id (Range): a run's per-processor state
// needs no map, and anything walked in id order is walked that way by
// construction, not sorted into it.
//
// The paper models a system PR of n processors, one of which (the
// transmitter) holds a private value v from a value set V. We number
// processors 0..n-1 and, by convention throughout this module, processor 0
// is the transmitter unless a protocol documents otherwise.
package ident

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// ProcID identifies a processor in the system. IDs are dense and start at 0.
type ProcID int32

// None is the sentinel "no processor" identity. It is never a valid sender
// or receiver.
const None ProcID = -1

// String implements fmt.Stringer, rendering p7 style identities.
func (p ProcID) String() string {
	if p == None {
		return "p?"
	}
	return fmt.Sprintf("p%d", int32(p))
}

// Value is an agreement value. The paper's lower bounds use the binary
// domain V = {0, 1}; the algorithms generalize to larger finite domains, so
// we keep Value an integer rather than a bool.
type Value int64

// Canonical binary values used by the paper's proofs and by the default
// decision of every protocol in this module ("agree on 0 when in doubt").
const (
	V0 Value = 0
	V1 Value = 1
)

// String implements fmt.Stringer.
func (v Value) String() string { return fmt.Sprintf("v=%d", int64(v)) }

// Set is a set of processor identities, kept as a bitset: id i is bit i%64
// of word i/64. Ids are dense, so a set of any processors of an n-processor
// run takes n/64 words, and it iterates in id order by construction.
//
// The first word is held inline: the zero value is an empty, usable set, and
// a set whose ids are all below 64 never allocates. The words past it grow on
// demand, so memory follows the largest id added, and Add panics on a
// negative id (Has and Remove treat one as absent). A Set is a value:
// assignment copies the inline word but shares the words past it, so a set is
// written through one variable and Clone makes an independent copy. high
// never ends in a zero word, which keeps equal sets reflect.DeepEqual.
type Set struct {
	low  uint64   // ids 0..63
	high []uint64 // high[i] holds ids 64(i+1) .. 64(i+1)+63
}

// NewSet builds a set from the given identities.
func NewSet(ids ...ProcID) Set {
	var s Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// word returns the word holding id and id's bit in it; nil if id is negative
// or past the words s has.
func (s *Set) word(id ProcID) (*uint64, uint64) {
	switch {
	case id < 0:
		return nil, 0
	case id < 64:
		return &s.low, 1 << uint(id)
	case int(id/64)-1 < len(s.high):
		return &s.high[id/64-1], 1 << uint(id%64)
	}
	return nil, 0
}

// Add inserts id into the set and reports whether it was newly added.
func (s *Set) Add(id ProcID) bool {
	if id < 0 {
		panic(fmt.Sprintf("ident: Set.Add(%d)", int32(id)))
	}
	if need := int(id / 64); need > len(s.high) {
		s.high = append(s.high, make([]uint64, need-len(s.high))...)
	}
	w, bit := s.word(id)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// Has reports whether id is in the set.
func (s Set) Has(id ProcID) bool {
	w, bit := s.word(id)
	return w != nil && *w&bit != 0
}

// Remove deletes id from the set if present.
func (s *Set) Remove(id ProcID) {
	if w, bit := s.word(id); w != nil {
		*w &^= bit
		s.trim()
	}
}

// trim drops trailing zero words.
func (s *Set) trim() {
	n := len(s.high)
	for n > 0 && s.high[n-1] == 0 {
		n--
	}
	if n == 0 {
		s.high = nil
	} else {
		s.high = s.high[:n]
	}
}

// Len returns the cardinality of the set.
func (s Set) Len() int {
	n := bits.OnesCount64(s.low)
	for _, w := range s.high {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn with every member in ascending order. fn must not change s.
func (s Set) Each(fn func(ProcID)) {
	eachBit(s.low, 0, fn)
	for i, w := range s.high {
		eachBit(w, ProcID(64*(i+1)), fn)
	}
}

// eachBit calls fn with base+b for every set bit b of w, lowest first.
func eachBit(w uint64, base ProcID, fn func(ProcID)) {
	for ; w != 0; w &= w - 1 {
		fn(base + ProcID(bits.TrailingZeros64(w)))
	}
}

// Sorted returns the members in ascending order, walking the words in
// order. The result is a fresh slice, never nil; mutating it does not affect
// the set.
func (s Set) Sorted() []ProcID {
	out := make([]ProcID, 0, s.Len())
	s.Each(func(id ProcID) { out = append(out, id) })
	return out
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	return Set{low: s.low, high: slices.Clone(s.high)}
}

// Union returns a new set containing the members of both sets.
func (s Set) Union(other Set) Set {
	if len(other.high) > len(s.high) {
		s, other = other, s
	}
	out := s.Clone()
	out.low |= other.low
	for i, w := range other.high {
		out.high[i] |= w
	}
	return out
}

// Intersect returns a new set with the members common to both sets.
func (s Set) Intersect(other Set) Set {
	if len(other.high) < len(s.high) {
		s, other = other, s
	}
	out := s.Clone()
	out.low &= other.low
	for i := range out.high {
		out.high[i] &= other.high[i]
	}
	out.trim()
	return out
}

// Range enumerates ids [0, n) as a slice. It is a convenience for building
// "all processors" sets and deterministic iteration orders. The result is a
// view of one table every caller shares, so it allocates nothing once the
// table is n long: callers must not write to it (appending is safe — its
// capacity ends at n, so an append copies).
func Range(n int) []ProcID {
	if tbl := rangeTable.Load(); tbl != nil && len(*tbl) >= n {
		return (*tbl)[:n:n]
	}
	return growRange(n)
}

// rangeTable is 0, 1, 2, … as far as any Range has asked. It only grows, and
// by replacement, so a view handed out earlier is never written: concurrent
// callers (mesh peers, shards) share it without a lock.
var rangeTable atomic.Pointer[[]ProcID]

// growRange replaces the table with one at least n long, doubling it.
func growRange(n int) []ProcID {
	for {
		old := rangeTable.Load()
		size := max(n, 64)
		if old != nil {
			if len(*old) >= n {
				return (*old)[:n:n]
			}
			size = max(n, 2*len(*old))
		}
		tbl := make([]ProcID, size)
		for i := range tbl {
			tbl[i] = ProcID(i)
		}
		if rangeTable.CompareAndSwap(old, &tbl) {
			return tbl[:n:n]
		}
	}
}
