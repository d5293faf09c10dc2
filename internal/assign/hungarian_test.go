package assign

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHungarianSimple(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	match, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: row0->col1 (1), row1->col0 (2), row2->col2 (2) = 5.
	if total != 5 {
		t.Errorf("total = %v, want 5 (match %v)", total, match)
	}
	checkPermutation(t, match)
}

func TestHungarianIdentity(t *testing.T) {
	// Diagonal zeros: optimal cost 0 matching rows to their own column.
	n := 6
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			if i != j {
				cost[i][j] = 10 + float64(i+j)
			}
		}
	}
	match, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("total = %v, want 0", total)
	}
	for i, j := range match {
		if i != j {
			t.Errorf("match[%d] = %d, want identity", i, j)
		}
	}
}

func TestHungarianShapeErrors(t *testing.T) {
	if _, _, err := Hungarian(nil); err != ErrShape {
		t.Error("nil matrix should return ErrShape")
	}
	if _, _, err := Hungarian([][]float64{{1, 2}}); err != ErrShape {
		t.Error("ragged matrix should return ErrShape")
	}
}

func TestHungarianSingleCell(t *testing.T) {
	match, total, err := Hungarian([][]float64{{7}})
	if err != nil || total != 7 || match[0] != 0 {
		t.Errorf("1x1: match=%v total=%v err=%v", match, total, err)
	}
}

func checkPermutation(t *testing.T, match []int) {
	t.Helper()
	seen := make(map[int]bool)
	for _, j := range match {
		if j < 0 || j >= len(match) || seen[j] {
			t.Fatalf("match %v is not a permutation", match)
		}
		seen[j] = true
	}
}

func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := 1e18
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var s float64
			for i, j := range perm {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5) // up to 6x6, brute force is 720 perms
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(100))
			}
		}
		_, total, err := Hungarian(cost)
		if err != nil {
			return false
		}
		return total == bruteForce(cost)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHungarianBeatsOrEqualsGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = rng.Float64() * 100
			}
		}
		_, hTotal, err1 := Hungarian(cost)
		gm, gTotal := greedy(cost)
		if err1 != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, j := range gm {
			if seen[j] {
				return false
			}
			seen[j] = true
		}
		return hTotal <= gTotal+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// greedy is the measuring stick for Hungarian: it approximates the
// assignment by repeatedly taking the globally cheapest unassigned
// (row, column) pair of a square cost matrix.
func greedy(cost [][]float64) ([]int, float64) {
	n := len(cost)
	match := make([]int, n)
	rowDone := make([]bool, n)
	colDone := make([]bool, n)
	var total float64
	for step := 0; step < n; step++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if rowDone[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if colDone[j] {
					continue
				}
				if cost[i][j] < best {
					bi, bj, best = i, j, cost[i][j]
				}
			}
		}
		rowDone[bi], colDone[bj] = true, true
		match[bi] = bj
		total += best
	}
	return match, total
}
