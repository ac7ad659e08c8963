package alg4

import (
	"errors"
	"fmt"
	"math"
)

// errNotSquare indicates the group size is not a perfect square.
var errNotSquare = errors.New("grid: group size is not a perfect square")

// grid is the √N × √N addressing of a group of N = m² members, the
// communication structure of Algorithm 4: phase 1 exchanges along rows,
// phase 2 along columns, phase 3 along rows again. Its value is the side m;
// index i sits at row i/m, column i%m.
type grid int

// newGrid builds the grid over n = m² positions.
func newGrid(n int) (grid, error) {
	m := int(math.Sqrt(float64(n)))
	for ; m*m < n; m++ {
	}
	if m*m != n || n < 1 {
		return 0, fmt.Errorf("%w: %d", errNotSquare, n)
	}
	return grid(m), nil
}

func (g grid) row(i int) int { return i / int(g) }
func (g grid) col(i int) int { return i % int(g) }
