// Package bravyi generates Bravyi-Haah (3k+8) -> k magic-state distillation
// circuits and the multi-level block-code factories built from them
// (paper §II.F-II.G and the Fig. 5 Scaffold listing). A factory is a
// circuit.Circuit plus the structural metadata (rounds, modules, inter-round
// permutation wires) that the mapping and stitching optimizers exploit.
package bravyi

import (
	"fmt"
	"math"

	"magicstate/internal/circuit"
)

// Params configures a block-code factory.
type Params struct {
	// K is the per-module output count k of the (3k+8) -> k protocol.
	K int
	// Levels is the block-code recursion depth L; the factory outputs
	// K^L states per run.
	Levels int
	// Reuse enables sharing-after-measurement qubit reuse (§V.B): later
	// rounds rename qubits measured in earlier rounds instead of
	// allocating fresh ones, trading false dependencies for area.
	Reuse bool
	// Barriers inserts a scheduling fence between rounds (§V.A), exposing
	// the per-round planar structure to the mappers.
	Barriers bool
	// Assigner customizes which measured qubits later rounds reuse. Nil
	// selects the default contiguous policy. Only consulted when Reuse.
	Assigner ReuseAssigner
}

// ReuseAssigner picks `need` qubit ids from pool (ids already measured and
// safe to rename, in ascending order) for the module with the given round
// and in-round index. Implementations must return ids drawn from pool
// without repetition; the returned slice length may be shorter than need,
// in which case fresh qubits cover the remainder. pool is Build's own
// state: an assigner must not reorder or modify it, and must copy it
// before sorting by another key. Hierarchical stitching supplies a
// placement-aware assigner (§VII.B.1).
type ReuseAssigner func(round, moduleInRound, need int, pool []circuit.Qubit) []circuit.Qubit

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("bravyi: K must be >= 1, got %d", p.K)
	}
	if p.Levels < 1 {
		return fmt.Errorf("bravyi: Levels must be >= 1, got %d", p.Levels)
	}
	return nil
}

// Capacity returns the factory's total output count K^Levels.
func (p Params) Capacity() int {
	c := 1
	for i := 0; i < p.Levels; i++ {
		c *= p.K
	}
	return c
}

// Inputs returns the number of raw input states consumed per run,
// (3K+8)^Levels.
func (p Params) Inputs() int {
	c := 1
	for i := 0; i < p.Levels; i++ {
		c *= 3*p.K + 8
	}
	return c
}

// ModulesInRound returns the number of Bravyi-Haah modules in round r
// (1-based): (3K+8)^(L-r) * K^(r-1).
func (p Params) ModulesInRound(r int) int {
	n := 1
	for i := 0; i < p.Levels-r; i++ {
		n *= 3*p.K + 8
	}
	for i := 0; i < r-1; i++ {
		n *= p.K
	}
	return n
}

// TotalModules returns the module count across all rounds.
func (p Params) TotalModules() int {
	n := 0
	for r := 1; r <= p.Levels; r++ {
		n += p.ModulesInRound(r)
	}
	return n
}

// QubitsPerModule returns the full logical-qubit footprint of a round-1
// module: 3K+8 raw + K+5 ancilla + K output = 5K+13 (§II.F). Later rounds
// allocate only 2K+5 fresh qubits because their raw inputs are the previous
// round's outputs.
func (p Params) QubitsPerModule() int { return 5*p.K + 13 }

// ParamsForCapacity returns Params whose Capacity is exactly capacity at
// the given level count, or an error when capacity is not a perfect
// levels-th power.
func ParamsForCapacity(capacity, levels int) (Params, error) {
	if capacity < 1 || levels < 1 {
		return Params{}, fmt.Errorf("bravyi: bad capacity %d or levels %d", capacity, levels)
	}
	k := int(math.Round(math.Pow(float64(capacity), 1/float64(levels))))
	p := Params{K: k, Levels: levels, Barriers: true}
	if p.Capacity() != capacity {
		return Params{}, fmt.Errorf("bravyi: capacity %d is not a perfect %d-th power", capacity, levels)
	}
	return p, nil
}

// OutputError returns the distilled error rate after one module given
// input error eps: (1+3K) * eps^2 (§II.F).
func (p Params) OutputError(eps float64) float64 {
	return float64(1+3*p.K) * eps * eps
}

// SuccessProbability returns the first-order module success probability
// 1 - (8+3K) * eps (§II.F), clamped to [0,1].
func (p Params) SuccessProbability(eps float64) float64 {
	s := 1 - float64(8+3*p.K)*eps
	if s < 0 {
		return 0
	}
	return s
}
