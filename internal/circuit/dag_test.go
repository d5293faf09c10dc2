package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDepsChain(t *testing.T) {
	c := New(2)
	c.H(0)       // gate 0
	c.CNOT(0, 1) // gate 1 depends on 0
	c.H(1)       // gate 2 depends on 1
	c.H(0)       // gate 3 depends on 1 (shares q0)
	d := Deps(c)
	if d.InDegree(0) != 0 || d.InDegree(1) != 1 || d.InDegree(2) != 1 || d.InDegree(3) != 1 {
		t.Errorf("in-degrees wrong: %d %d %d %d",
			d.InDegree(0), d.InDegree(1), d.InDegree(2), d.InDegree(3))
	}
	if len(d.Succ[1]) != 2 {
		t.Errorf("gate 1 should have 2 successors, got %v", d.Succ[1])
	}
}

func TestDepsDeduplicatesSharedOperands(t *testing.T) {
	c := New(2)
	c.CNOT(0, 1)
	c.CNOT(0, 1) // shares both qubits with gate 0; only one edge
	d := Deps(c)
	if d.InDegree(1) != 1 {
		t.Errorf("duplicate-operand edge not deduplicated: in-degree %d", d.InDegree(1))
	}
}

func TestLevelsIndependentGates(t *testing.T) {
	c := New(4)
	c.H(0)
	c.H(1)
	c.CNOT(0, 1) // level 1
	c.CNOT(2, 3) // level 0: disjoint qubits
	lvl := Deps(c).Levels()
	want := []int{0, 0, 1, 0}
	for i, w := range want {
		if lvl[i] != w {
			t.Errorf("level[%d] = %d, want %d (all %v)", i, lvl[i], w, lvl)
		}
	}
}

func TestBarrierSerializes(t *testing.T) {
	c := New(4)
	c.H(0)
	c.H(1)
	c.Barrier([]Qubit{0, 1, 2, 3})
	c.H(2) // would be level 0 without the barrier
	lvl := Deps(c).Levels()
	if lvl[3] <= lvl[2]-1 && lvl[3] != lvl[2]+1 {
		t.Errorf("gate after barrier should be above it: barrier %d, h(2) %d", lvl[2], lvl[3])
	}
	if lvl[3] != 2 {
		t.Errorf("h(2) should be at level 2 (after barrier at 1), got %d", lvl[3])
	}
}

func TestLevelsChain(t *testing.T) {
	c := New(2)
	c.H(0)
	c.CNOT(0, 1)
	c.MeasX(1)
	lvl := Deps(c).Levels()
	for i, w := range []int{0, 1, 2} {
		if lvl[i] != w {
			t.Errorf("chain of 3 gates: level[%d] = %d, want %d", i, lvl[i], w)
		}
	}
}

// Property: Levels is the unit-weight longest path into each gate. Every
// gate sits at least one level above each predecessor, and a gate above
// level 0 has a predecessor exactly one level below it.
func TestLevelsAreLongestChains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := New(n)
		for g := 0; g < 30; g++ {
			a := Qubit(rng.Intn(n))
			b := Qubit(rng.Intn(n))
			if a == b {
				c.H(a)
			} else {
				c.CNOT(a, b)
			}
		}
		d := Deps(c)
		lvl := d.Levels()
		tight := make([]bool, d.NumGates)
		for i, l := range lvl {
			for _, s := range d.Succ[i] {
				if lvl[s] < l+1 {
					return false
				}
				if lvl[s] == l+1 {
					tight[s] = true
				}
			}
		}
		for i, l := range lvl {
			if l > 0 && !tight[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
