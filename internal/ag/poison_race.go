//go:build race

package ag

import "math"

// A race build poisons what Arena.Reset releases — NaN in every
// tensor, -1 in every Gather index — so `make race`, which runs the
// training goldens, fails on any read of a graph after its arena was
// reset.
func init() {
	poison = func(a *Arena) {
		a.pool.Fill(math.NaN())
		for i := range a.idx {
			a.idx[i] = -1
		}
	}
}
