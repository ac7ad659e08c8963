package ident_test

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"byzex/internal/ident"
)

func TestSetBasics(t *testing.T) {
	s := ident.NewSet(1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	if !s.Has(2) || s.Has(4) {
		t.Fatal("membership wrong")
	}
	if s.Add(2) {
		t.Fatal("re-adding reported new")
	}
	if !s.Add(4) {
		t.Fatal("adding new reported old")
	}
	s.Remove(1)
	if s.Has(1) {
		t.Fatal("remove failed")
	}
}

func TestSetSortedDeterministic(t *testing.T) {
	s := ident.NewSet(5, 3, 9, 1)
	want := []ident.ProcID{1, 3, 5, 9}
	got := s.Sorted()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted %v", got)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := ident.NewSet(1, 2, 3)
	b := ident.NewSet(3, 4)
	if u := a.Union(b); u.Len() != 4 {
		t.Fatalf("union %v", u.Sorted())
	}
	if i := a.Intersect(b); i.Len() != 1 || !i.Has(3) {
		t.Fatalf("intersect %v", i.Sorted())
	}
	// Originals untouched.
	if a.Len() != 3 || b.Len() != 2 {
		t.Fatal("algebra mutated operands")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := ident.NewSet(1)
	c := a.Clone()
	c.Add(2)
	if a.Has(2) {
		t.Fatal("clone shares storage")
	}
}

func TestNilSetReads(t *testing.T) {
	var s ident.Set
	if s.Has(1) || s.Len() != 0 {
		t.Fatal("nil set misbehaves")
	}
	if got := s.Sorted(); len(got) != 0 {
		t.Fatal("nil sorted non-empty")
	}
}

func TestRange(t *testing.T) {
	r := ident.Range(4)
	if len(r) != 4 || r[0] != 0 || r[3] != 3 {
		t.Fatalf("range %v", r)
	}
	if len(ident.Range(0)) != 0 {
		t.Fatal("empty range")
	}
}

func TestStrings(t *testing.T) {
	if ident.ProcID(7).String() != "p7" {
		t.Fatal("proc string")
	}
	if ident.None.String() != "p?" {
		t.Fatal("none string")
	}
	if ident.V1.String() != "v=1" {
		t.Fatal("value string")
	}
}

func TestQuickSetUnionCommutes(t *testing.T) {
	f := func(xs, ys []int16) bool {
		var a, b ident.Set
		for _, x := range xs {
			a.Add(ident.ProcID(uint16(x)))
		}
		for _, y := range ys {
			b.Add(ident.ProcID(uint16(y)))
		}
		ab, ba := a.Union(b).Sorted(), b.Union(a).Sorted()
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDiffIntersectPartition(t *testing.T) {
	// |A| = |A∩B| + |A\B| for all A, B.
	f := func(xs, ys []int16) bool {
		var a, b ident.Set
		for _, x := range xs {
			a.Add(ident.ProcID(uint16(x)))
		}
		for _, y := range ys {
			b.Add(ident.ProcID(uint16(y)))
		}
		outside := 0
		a.Each(func(id ident.ProcID) {
			if !b.Has(id) {
				outside++
			}
		})
		return a.Len() == a.Intersect(b).Len()+outside
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRangeSharesOneTable pins that Range is a view of one shared table: a
// second call allocates nothing, growing the table leaves earlier views as
// they were, and appending to a view cannot reach another caller's.
func TestRangeSharesOneTable(t *testing.T) {
	small := ident.Range(5)
	if allocs := testing.AllocsPerRun(10, func() { _ = ident.Range(5) }); allocs != 0 {
		t.Errorf("a second Range(5) made %v allocations", allocs)
	}
	grown := ident.Range(5000)
	for i, id := range grown {
		if id != ident.ProcID(i) {
			t.Fatalf("Range(5000)[%d] = %v", i, id)
		}
	}
	mine := append(ident.Range(3), 99)
	if other := ident.Range(4); other[3] != 3 || mine[3] != 99 {
		t.Errorf("append to a view reached the table: %v, %v", other, mine)
	}
	if len(small) != 5 || cap(small) != 5 || small[4] != 4 {
		t.Errorf("an earlier view changed: %v (cap %d)", small, cap(small))
	}
}

// setOp is one step of TestQuickSetMatchesMapModel's random programs.
type setOp struct {
	Kind uint8  // Add, Remove, or a Has probe
	ID   uint16 // ids up to 65535: the inline word and many words past it
}

// TestQuickSetMatchesMapModel runs random programs of Add, Remove and Has on
// a Set and on a map[ProcID]struct{} model side by side, and checks after
// every step that Add's and Has's answers, Len, Sorted's order and the
// results of Union, Intersect and Clone are the model's.
func TestQuickSetMatchesMapModel(t *testing.T) {
	sortedKeys := func(m map[ident.ProcID]struct{}) []ident.ProcID {
		out := make([]ident.ProcID, 0, len(m))
		for id := range m {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	same := func(s ident.Set, m map[ident.ProcID]struct{}) bool {
		return s.Len() == len(m) && slices.Equal(s.Sorted(), sortedKeys(m))
	}
	// Small ids often, so removes hit members and words empty out again.
	id := func(op setOp) ident.ProcID {
		if op.Kind&4 != 0 {
			return ident.ProcID(op.ID % 200)
		}
		return ident.ProcID(op.ID)
	}
	f := func(ops, others []setOp) bool {
		var s, o ident.Set
		m, om := map[ident.ProcID]struct{}{}, map[ident.ProcID]struct{}{}
		for _, op := range others {
			o.Add(id(op))
			om[id(op)] = struct{}{}
		}
		for _, op := range ops {
			p := id(op)
			_, had := m[p]
			switch op.Kind % 3 {
			case 0:
				if s.Add(p) == had {
					return false
				}
				m[p] = struct{}{}
			case 1:
				if keys := sortedKeys(m); op.Kind&8 != 0 && len(keys) > 0 {
					p = keys[len(keys)-1] // the largest: its word may empty out
				}
				s.Remove(p)
				delete(m, p)
			default:
				if s.Has(p) != had {
					return false
				}
			}
			if !same(s, m) {
				return false
			}
		}
		union, inter := map[ident.ProcID]struct{}{}, map[ident.ProcID]struct{}{}
		for p := range m {
			union[p] = struct{}{}
			if _, ok := om[p]; ok {
				inter[p] = struct{}{}
			}
		}
		for p := range om {
			union[p] = struct{}{}
		}
		c := s.Clone()
		c.Add(70000)
		c.Add(1)
		// Equal sets are equal values, however they were built: what
		// reflect.DeepEqual compares (results, configs) sees sets by content.
		if !reflect.DeepEqual(s, ident.NewSet(sortedKeys(m)...)) {
			return false
		}
		return same(s, m) && same(s.Union(o), union) && same(o.Union(s), union) &&
			same(s.Intersect(o), inter) && same(o.Intersect(s), inter) &&
			reflect.DeepEqual(s.Intersect(o), o.Intersect(s)) && reflect.DeepEqual(s.Union(o), o.Union(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSetSmallDoesNotAllocate pins the inline word: an empty set and a set of
// ids below 64 are built, probed, walked and combined without allocating.
func TestSetSmallDoesNotAllocate(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s ident.Set
		for id := ident.ProcID(0); id < 64; id += 3 {
			s.Add(id)
		}
		s.Remove(9)
		n := 0
		s.Each(func(ident.ProcID) { n++ })
		if !s.Has(63) || s.Has(9) || n != s.Len() || s.Union(ident.Set{}).Intersect(s).Len() != n {
			t.Fatal("small set misbehaves")
		}
	})
	if allocs != 0 {
		t.Errorf("a set of ids below 64 made %v allocations", allocs)
	}
}

func TestSetAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(None) did not panic")
		}
	}()
	var s ident.Set
	if s.Has(ident.None) {
		t.Error("Has(None) on an empty set")
	}
	s.Remove(ident.None)
	s.Add(ident.None)
}
