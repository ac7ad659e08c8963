package alg4

import (
	"testing"
	"testing/quick"
)

func TestNewValidatesSquares(t *testing.T) {
	for _, n := range []int{1, 4, 9, 16, 144} {
		if _, err := newGrid(n); err != nil {
			t.Errorf("newGrid(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, 2, 3, 5, 8, 15, -4} {
		if _, err := newGrid(n); err == nil {
			t.Errorf("newGrid(%d): accepted non-square", n)
		}
	}
}

func TestCoordinates(t *testing.T) {
	g, _ := newGrid(9)
	if g != 3 {
		t.Fatalf("side %d, want 3", g)
	}
	if g.row(5) != 1 || g.col(5) != 2 {
		t.Fatalf("coords of 5: (%d,%d)", g.row(5), g.col(5))
	}
}

func TestMates(t *testing.T) {
	g, _ := newGrid(9)
	row := g.rowMates(4) // center: row 1 = {3,4,5}
	if len(row) != 2 || row[0] != 3 || row[1] != 5 {
		t.Fatalf("row mates %v", row)
	}
	col := g.colMates(4) // column 1 = {1,4,7}
	if len(col) != 2 || col[0] != 1 || col[1] != 7 {
		t.Fatalf("col mates %v", col)
	}
}

func TestQuickRowColPartition(t *testing.T) {
	// Property: row+col mates of any index cover exactly 2(m-1) distinct
	// indices, none equal to the index, row mates share its row and column
	// mates its column.
	f := func(mRaw, iRaw uint8) bool {
		m := int(mRaw)%12 + 1
		g, err := newGrid(m * m)
		if err != nil {
			return false
		}
		i := int(iRaw) % (m * m)
		if g.row(i)*m+g.col(i) != i {
			return false
		}
		seen := map[int]bool{}
		for _, j := range g.rowMates(i) {
			if g.row(j) != g.row(i) {
				return false
			}
			seen[j] = true
		}
		for _, j := range g.colMates(i) {
			if g.col(j) != g.col(i) || seen[j] {
				return false
			}
			seen[j] = true
		}
		return !seen[i] && len(seen) == 2*(m-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
