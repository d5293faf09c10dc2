// Package resource implements the paper's resource accounting: the
// per-gate cycle cost model used by the braid simulator and critical-path
// analysis, the Bravyi-Haah error-propagation and balanced-investment code
// distance model of §II.F-II.G (following O'Gorman & Campbell [20]), and
// space-time volume computation.
package resource

import "magicstate/internal/circuit"

// CostModel assigns surface-code cycle durations to logical gates. Braid
// durations are distance-insensitive (a braid extends to arbitrary length
// in constant time, §II.C) but a braid occupies its whole path for the
// full duration, which is what makes congestion expensive. The defaults
// are calibrated so that critical-path volumes of single-level factories
// land in the range Table I reports (e.g. K=2 ≈ 6.3e3, K=24 ≈ 1.1e5).
type CostModel struct {
	Prep   int // state preparation
	H      int // Hadamard (transversal-ish tile-local operation)
	Meas   int // destructive measurement
	CNOT   int // two-qubit braid occupancy
	CXX    int // single-control multi-target braid occupancy
	Inject int // magic-state injection: 2 CNOT braids in expectation (§II.E)
	Move   int // state relocation braid (inter-round permutation step)
}

// DefaultCost returns the calibrated default model.
func DefaultCost() CostModel {
	return CostModel{Prep: 10, H: 10, Meas: 10, CNOT: 20, CXX: 20, Inject: 40, Move: 20}
}

// GateCycles returns the duration of g in cycles. Barriers are pure
// scheduling fences and take zero time.
func (cm CostModel) GateCycles(g *circuit.Gate) int {
	switch g.Kind {
	case circuit.KindPrepZ, circuit.KindPrepX:
		return cm.Prep
	case circuit.KindH, circuit.KindX, circuit.KindZ:
		return cm.H
	case circuit.KindS:
		return 2 * cm.Inject // S decomposes into two T injections (§II.E)
	case circuit.KindT:
		return cm.Inject
	case circuit.KindMeasX, circuit.KindMeasZ:
		return cm.Meas
	case circuit.KindCNOT:
		return cm.CNOT
	case circuit.KindCXX:
		return cm.CXX
	case circuit.KindInjectT, circuit.KindInjectTdag:
		return cm.Inject
	case circuit.KindMove:
		return cm.Move
	case circuit.KindBarrier:
		return 0
	}
	return cm.CNOT
}

// CriticalPath returns the dependency-limited latency of c in cycles: the
// paper's "theoretical lower bound" (Fig. 7), which assumes every braid
// routes without conflict.
//
// Under the hazard rule of circuit.Deps a gate's predecessors are the last
// earlier gates touching each of its operands, so the longest path needs
// no DAG. One pass keeps each qubit's ready cycle (when the last gate on
// it finishes): a gate starts at the latest ready cycle among its operands
// and moves them all to its end. That is linear in the operand count, and
// equals the longest path through Deps(c) exactly.
func (cm CostModel) CriticalPath(c *circuit.Circuit) int {
	ready := make([]int, c.NumQubits)
	longest := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		start := 0
		if g.Control != circuit.NoQubit {
			start = ready[g.Control]
		}
		for _, q := range g.Targets {
			start = max(start, ready[q])
		}
		end := start + cm.GateCycles(g)
		if g.Control != circuit.NoQubit {
			ready[g.Control] = end
		}
		for _, q := range g.Targets {
			ready[q] = end
		}
		longest = max(longest, end)
	}
	return longest
}
