package alg3

import (
	"testing"

	"byzex/internal/ident"
)

func TestLayoutPartition(t *testing.T) {
	l := newLayout(33, 3, 4) // actives 0..6, passives 7..32 in sets of 4
	if len(l.actives) != 7 {
		t.Fatalf("actives %d", len(l.actives))
	}
	if l.sets() != 7 { // 26 passives / 4 = 6 full + 1 of 2
		t.Fatalf("sets %d", l.sets())
	}
	if _, size := l.set(6); size != 2 {
		t.Fatalf("last set %d", size)
	}
	// Roots are the first member of each set.
	r0, _ := l.set(0)
	r1, _ := l.set(1)
	if r0 != 7 || r1 != 11 {
		t.Fatalf("roots %v %v", r0, r1)
	}
}

func TestLocate(t *testing.T) {
	l := newLayout(33, 3, 4)
	// Active id: not locatable.
	if _, _, ok := l.locate(3); ok {
		t.Fatal("active located as passive")
	}
	// First passive is the root of set 0.
	if set, member, ok := l.locate(7); !ok || set != 0 || member != 0 {
		t.Fatalf("locate(7) = (%d,%d,%v)", set, member, ok)
	}
	// Second member of set 1.
	if set, member, ok := l.locate(12); !ok || set != 1 || member != 1 {
		t.Fatalf("locate(12) = (%d,%d,%v)", set, member, ok)
	}
	// Member of the short last set.
	if set, member, ok := l.locate(32); !ok || set != 6 || member != 1 {
		t.Fatalf("locate(32) = (%d,%d,%v)", set, member, ok)
	}
}

func TestLocateCoversEveryPassive(t *testing.T) {
	for _, tc := range []struct{ n, t, s int }{
		{33, 3, 4}, {100, 2, 7}, {10, 4, 1}, {9, 4, 3},
	} {
		l := newLayout(tc.n, tc.t, tc.s)
		var seen ident.Set
		for si := 0; si < l.sets(); si++ {
			root, size := l.set(si)
			for mi := 0; mi < size; mi++ {
				id := root + ident.ProcID(mi)
				gs, gm, ok := l.locate(id)
				if !ok || gs != si || gm != mi {
					t.Fatalf("n=%d: locate(%v) = (%d,%d,%v), want (%d,%d)", tc.n, id, gs, gm, ok, si, mi)
				}
				if !seen.Add(id) {
					t.Fatalf("n=%d: %v in two sets", tc.n, id)
				}
			}
		}
		if seen.Len() != tc.n-(2*tc.t+1) {
			t.Fatalf("n=%d: covered %d passives, want %d", tc.n, seen.Len(), tc.n-(2*tc.t+1))
		}
	}
}
