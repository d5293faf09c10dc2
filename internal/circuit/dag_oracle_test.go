package circuit_test

import (
	"fmt"
	"slices"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
)

// naiveDeps is the obviously correct dependency build: one map per gate
// dedupes the last writers of its operands, and successor lists grow by
// plain appends in program order.
func naiveDeps(c *circuit.Circuit) (succ [][]int, indeg []int) {
	n := len(c.Gates)
	succ = make([][]int, n)
	indeg = make([]int, n)
	last := make(map[circuit.Qubit]int)
	for i := range c.Gates {
		preds := map[int]bool{}
		for _, q := range c.Gates[i].Operands() {
			if p, ok := last[q]; ok && !preds[p] {
				preds[p] = true
				succ[p] = append(succ[p], i)
				indeg[i]++
			}
			last[q] = i
		}
	}
	return succ, indeg
}

func checkDeps(t *testing.T, name string, c *circuit.Circuit) {
	t.Helper()
	d := circuit.Deps(c)
	succ, indeg := naiveDeps(c)
	for i := range c.Gates {
		if d.InDegree(i) != indeg[i] {
			t.Fatalf("%s: gate %d in-degree %d, naive %d", name, i, d.InDegree(i), indeg[i])
		}
		if !slices.Equal(d.Succ[i], succ[i]) {
			t.Fatalf("%s: gate %d successors %v, naive %v", name, i, d.Succ[i], succ[i])
		}
	}
}

func TestDepsMatchesNaiveOnBarrierFactories(t *testing.T) {
	for _, p := range []bravyi.Params{
		{K: 1, Levels: 3, Reuse: true, Barriers: true},
		{K: 2, Levels: 2, Barriers: true},
		{K: 4, Levels: 2, Reuse: true, Barriers: true},
	} {
		f, err := bravyi.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		checkDeps(t, fmt.Sprintf("%+v", p), f.Circuit)
	}
}

// TestDepsMatchesNaiveOnWideBarrier feeds a barrier whose operands' last
// writers are thousands of distinct gates, some of them shared by two
// operands, then a second barrier whose operands all share one writer.
func TestDepsMatchesNaiveOnWideBarrier(t *testing.T) {
	const n = 5000
	c := circuit.New(n)
	all := make([]circuit.Qubit, n)
	for q := range all {
		all[q] = circuit.Qubit(q)
		c.H(all[q])
	}
	for q := 0; q+1 < n; q += 3 {
		c.CNOT(all[q], all[q+1])
	}
	c.Barrier(all)
	c.Barrier(all[:n/2])
	c.CNOT(all[0], all[n-1])
	checkDeps(t, "wide barrier", c)

	barrier := n + (n+2)/3
	if got, want := circuit.Deps(c).InDegree(barrier), n-(n+2)/3; got != want {
		t.Errorf("barrier in-degree %d, want %d distinct writers", got, want)
	}
}
