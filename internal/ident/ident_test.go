package ident_test

import (
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
		a, b := make(ident.Set), make(ident.Set)
		for _, x := range xs {
			a.Add(ident.ProcID(x))
		}
		for _, y := range ys {
			b.Add(ident.ProcID(y))
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
		a, b := make(ident.Set), make(ident.Set)
		for _, x := range xs {
			a.Add(ident.ProcID(x))
		}
		for _, y := range ys {
			b.Add(ident.ProcID(y))
		}
		outside := 0
		for id := range a {
			if !b.Has(id) {
				outside++
			}
		}
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
