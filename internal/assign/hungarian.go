// Package assign implements minimum-cost bipartite assignment (the
// Hungarian algorithm). Hierarchical stitching's port-reassignment step
// (§VII.B.2 of the paper) uses it: within a group, each previous-round
// module's k output ports must be matched one-to-one with the k next-round
// modules so that total permutation braid distance is minimized.
package assign

import (
	"errors"
	"math"
)

// ErrShape is returned for non-square or empty cost matrices.
var ErrShape = errors.New("assign: cost matrix must be square and non-empty")

// Hungarian solves the n×n minimum-cost assignment problem. cost[i][j] is
// the cost of assigning row i to column j. It returns match, where
// match[i] = j means row i is assigned column j, along with the total cost.
// The implementation is the O(n³) shortest augmenting path formulation
// (Jonker-Volgenant style potentials).
func Hungarian(cost [][]float64) ([]int, float64, error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, ErrShape
	}
	for _, row := range cost {
		if len(row) != n {
			return nil, 0, ErrShape
		}
	}

	// Potentials u (rows) and v (columns), and way/matchCol bookkeeping.
	// Arrays are 1-indexed internally; index 0 is a sentinel.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	matchCol := make([]int, n+1) // matchCol[j] = row matched to column j
	way := make([]int, n+1)

	for i := 1; i <= n; i++ {
		matchCol[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[matchCol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if matchCol[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}

	match := make([]int, n)
	var total float64
	for j := 1; j <= n; j++ {
		if matchCol[j] > 0 {
			match[matchCol[j]-1] = j - 1
			total += cost[matchCol[j]-1][j-1]
		}
	}
	return match, total, nil
}
