// Package ident defines the primitive identifiers shared by every other
// package in the module: processor identities, agreement values, and small
// set utilities over processor identities.
//
// The paper models a system PR of n processors, one of which (the
// transmitter) holds a private value v from a value set V. We number
// processors 0..n-1 and, by convention throughout this module, processor 0
// is the transmitter unless a protocol documents otherwise.
package ident

import (
	"fmt"
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

// Set is a set of processor identities. The zero value is an empty, usable
// set (operations that add allocate lazily via the methods below; callers
// that range over a nil Set see nothing, matching Go map semantics).
type Set map[ProcID]struct{}

// NewSet builds a set from the given identities.
func NewSet(ids ...ProcID) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id into the set and reports whether it was newly added.
func (s Set) Add(id ProcID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// Has reports whether id is in the set.
func (s Set) Has(id ProcID) bool {
	_, ok := s[id]
	return ok
}

// Remove deletes id from the set if present.
func (s Set) Remove(id ProcID) { delete(s, id) }

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// Sorted returns the members in ascending order. The result is a fresh
// slice; mutating it does not affect the set.
func (s Set) Sorted() []ProcID {
	out := make([]ProcID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for id := range s {
		out[id] = struct{}{}
	}
	return out
}

// Union returns a new set containing the members of both sets.
func (s Set) Union(other Set) Set {
	out := s.Clone()
	for id := range other {
		out[id] = struct{}{}
	}
	return out
}

// Intersect returns a new set with the members common to both sets.
func (s Set) Intersect(other Set) Set {
	out := make(Set)
	for id := range s {
		if other.Has(id) {
			out[id] = struct{}{}
		}
	}
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
