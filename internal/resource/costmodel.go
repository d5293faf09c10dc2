// Package resource implements the paper's resource accounting: the
// per-gate cycle cost model used by the braid simulator and critical-path
// analysis, the Bravyi-Haah error-propagation and balanced-investment code
// distance model of §II.F-II.G (following O'Gorman & Campbell [20]), and
// space-time volume computation.
package resource

import (
	"fmt"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
)

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
	return cm.scan(c.Gates, make([]int, c.NumQubits))
}

// scan runs CriticalPath's pass over gates with ready[q] as the cycle
// qubit q becomes free, leaving each qubit's last finish in ready. It
// returns the latest finish of any gate (0 for none).
func (cm CostModel) scan(gates []circuit.Gate, ready []int) int {
	longest := 0
	for i := range gates {
		g := &gates[i]
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

// FactoryCriticalPath returns CriticalPath(bravyi.Build(p).Circuit)
// without building the factory: it scans one module per round.
//
// With barriers every round r >= 2 starts after a fence over every qubit
// allocated so far, which sets their ready cycles to E, the latest finish
// before it. The round's Move braids then run in parallel (each slot
// receives exactly one state, from a qubit no other Move touches), so
// every raw slot is ready at E + Move. Ancillas and outputs are renamed
// from the measured pool under Reuse, ready at E: the pool always covers
// a round, because a round has K/(3K+8) as many modules as the one
// before, each needing 5K+13 qubits where the one before freed 4K+13,
// and (3K+8)(4K+13)/K >= 5K+13. Without Reuse they are fresh tiles
// allocated after the fence, ready at 0. Round 1 starts everything at 0.
// The modules of a round are identical on disjoint qubits, so one
// module's scan is the round's finish.
//
// Factories without barriers or with a custom reuse assigner have no
// such round structure and are rejected.
func (cm CostModel) FactoryCriticalPath(p bravyi.Params) (int, error) {
	if !p.Barriers || p.Assigner != nil {
		return 0, fmt.Errorf("resource: FactoryCriticalPath needs Barriers and the default reuse assigner")
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	mod, err := bravyi.Build(bravyi.Params{K: p.K, Levels: 1, Barriers: true})
	if err != nil {
		return 0, err
	}
	c := mod.Circuit
	slots, ready := 3*p.K+8, make([]int, c.NumQubits)
	e := cm.scan(c.Gates, ready)
	for r := 2; r <= p.Levels; r++ {
		rest := 0
		if p.Reuse {
			rest = e
		}
		for q := range ready {
			ready[q] = rest
		}
		for q := 0; q < slots; q++ {
			ready[q] = e + cm.Move
		}
		e = max(e, cm.scan(c.Gates, ready))
	}
	return e, nil
}
