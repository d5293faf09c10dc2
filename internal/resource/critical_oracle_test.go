package resource

import (
	"fmt"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/qasm"
	"magicstate/internal/workload"
)

// oracleCriticalPath is the slow, obviously correct critical path: build
// the dependency DAG, then propagate finish times along its successor
// edges in program order (a topological order under the hazard rule).
func oracleCriticalPath(cm CostModel, c *circuit.Circuit) int {
	d := circuit.Deps(c)
	finish := make([]int, d.NumGates)
	longest := 0
	for i := 0; i < d.NumGates; i++ {
		finish[i] += cm.GateCycles(&c.Gates[i])
		longest = max(longest, finish[i])
		for _, s := range d.Succ[i] {
			finish[s] = max(finish[s], finish[i])
		}
	}
	return longest
}

func checkCriticalPath(t *testing.T, name string, c *circuit.Circuit) {
	t.Helper()
	cm := DefaultCost()
	if got, want := cm.CriticalPath(c), oracleCriticalPath(cm, c); got != want {
		t.Errorf("%s: CriticalPath = %d, oracle %d", name, got, want)
	}
}

func TestCriticalPathMatchesOracleOnFactories(t *testing.T) {
	for _, k := range []int{1, 2, 4, 6} {
		for levels := 1; levels <= 3; levels++ {
			for _, reuse := range []bool{false, true} {
				for _, barriers := range []bool{false, true} {
					p := bravyi.Params{K: k, Levels: levels, Reuse: reuse, Barriers: barriers}
					f, err := bravyi.Build(p)
					if err != nil {
						t.Fatal(err)
					}
					checkCriticalPath(t, fmt.Sprintf("%+v", p), f.Circuit)
				}
			}
		}
	}
}

func TestCriticalPathMatchesOracleOnRandomCircuits(t *testing.T) {
	specs := []workload.Spec{
		{Qubits: 2, Layers: 1, CX: 1, T: 0},
		{Qubits: 7, Layers: 20, CX: 0.5, T: 0.3},
		{Qubits: 32, Layers: 40, CX: 0.9, T: 0.1},
		{Qubits: 64, Layers: 8, CX: 0.2, T: 0.8},
	}
	for _, spec := range specs {
		for seed := int64(1); seed <= 8; seed++ {
			c, err := workload.Generate(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkCriticalPath(t, fmt.Sprintf("%v seed %d", spec, seed), c)
		}
	}
}

func TestCriticalPathMatchesOracleOnQASM(t *testing.T) {
	c, err := qasm.Compile(`OPENQASM 2.0;
include "qelib1.inc";
gate majority a, b, c { cx c, b; cx c, a; t a; tdg b; cx a, b; }
qreg q[8];
creg m[8];
reset q[6];
reset q[7];
h q;
s q[1];
majority q[0], q[1], q[2];
majority q[3], q[4], q[5];
barrier q[0], q[3], q[6], q[7];
cx q[2], q[6];
cx q[5], q[7];
barrier q;
t q;
sdg q[4];
measure q -> m;
`)
	if err != nil {
		t.Fatal(err)
	}
	checkCriticalPath(t, "qasm", c)
}

// TestCriticalPathWeighted checks that the heavier of two independent
// branches sets the critical path.
func TestCriticalPathWeighted(t *testing.T) {
	cm := CostModel{H: 1, Inject: 10, CNOT: 1}
	c := circuit.New(3)
	c.H(0)       // 1 cycle
	c.T(1)       // 10 cycles: heavier independent branch
	c.CNOT(0, 2) // 1 cycle: the path through gate 0 totals 2
	if got := cm.CriticalPath(c); got != 10 {
		t.Errorf("critical path %d, want 10", got)
	}
	if got := oracleCriticalPath(cm, c); got != 10 {
		t.Errorf("oracle critical path %d, want 10", got)
	}
}
