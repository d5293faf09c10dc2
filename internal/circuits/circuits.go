// Package circuits generates the non-distillation Clifford+T workloads
// used to exercise the stitching generalization of §IX ("our proposed
// hierarchical stitching procedure can be applied to other hierarchical
// circuits"): entangling chains, ripple-carry arithmetic (the Toffoli
// ladders quantum chemistry and Shor-style workloads are built from),
// QFT-like all-pairs rotation networks, and synthetic hierarchical
// circuits with tunable block structure. Everything is expressed in the
// toolchain's gate set so the mappers, schedulers and the braid simulator
// apply unchanged.
package circuits

import (
	"fmt"
	"math/rand"

	"magicstate/internal/circuit"
)

// GHZ returns the n-qubit GHZ preparation: H on the root followed by a
// CNOT chain. Its interaction graph is a path — the easiest possible
// mapping target, useful as a control case.
//
//deadcheck:keep reference circuit for scaffold's TestCompileGHZMatchesGenerator
func GHZ(n int) (*circuit.Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuits: GHZ needs >= 2 qubits, got %d", n)
	}
	c := circuit.New(n)
	c.H(0)
	for i := 0; i+1 < n; i++ {
		c.CNOT(circuit.Qubit(i), circuit.Qubit(i+1))
	}
	return c, nil
}

// toffoli emits the standard 7-T Clifford+T decomposition of a Toffoli
// gate on (a, b, t). T-dagger shares KindT (same cost, same interaction
// profile).
func toffoli(c *circuit.Circuit, a, b, t circuit.Qubit) {
	c.H(t)
	c.CNOT(b, t)
	c.T(t)
	c.CNOT(a, t)
	c.T(t)
	c.CNOT(b, t)
	c.T(t)
	c.CNOT(a, t)
	c.T(b)
	c.T(t)
	c.H(t)
	c.CNOT(a, b)
	c.T(b)
	c.CNOT(a, b)
	c.T(a)
	c.S(b)
}

// CuccaroAdder returns an n-bit ripple-carry adder in the Cuccaro style:
// qubits are laid out as carry-in, then alternating (a_i, b_i) pairs; the
// MAJ ladder ripples the carry up through Toffolis and the UMA ladder
// unwinds it. The interaction graph is a thickened path with strictly
// local structure — the workload class where subdivision stitching has
// planar windows to exploit.
func CuccaroAdder(n int) (*circuit.Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("circuits: adder needs >= 1 bit, got %d", n)
	}
	// Layout: c0, a0, b0, a1, b1, ..., a_{n-1}, b_{n-1}.
	c := circuit.New(1 + 2*n)
	carry := circuit.Qubit(0)
	a := func(i int) circuit.Qubit { return circuit.Qubit(1 + 2*i) }
	b := func(i int) circuit.Qubit { return circuit.Qubit(2 + 2*i) }

	// MAJ(x, y, z): CNOT z->y, CNOT z->x, Toffoli(x, y, z).
	maj := func(x, y, z circuit.Qubit) {
		c.CNOT(z, y)
		c.CNOT(z, x)
		toffoli(c, x, y, z)
	}
	// UMA(x, y, z): Toffoli(x, y, z), CNOT z->x, CNOT x->y.
	uma := func(x, y, z circuit.Qubit) {
		toffoli(c, x, y, z)
		c.CNOT(z, x)
		c.CNOT(x, y)
	}

	maj(carry, b(0), a(0))
	for i := 1; i < n; i++ {
		maj(a(i-1), b(i), a(i))
	}
	for i := n - 1; i >= 1; i-- {
		uma(a(i-1), b(i), a(i))
	}
	uma(carry, b(0), a(0))
	return c, nil
}

// QFTLike returns the all-pairs controlled-rotation network of an n-qubit
// quantum Fourier transform with each controlled phase decomposed into
// the CNOT–T–CNOT sandwich. Its interaction graph is complete — the
// adversarial mapping case with no planar structure to exploit.
func QFTLike(n int) (*circuit.Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuits: QFT needs >= 2 qubits, got %d", n)
	}
	c := circuit.New(n)
	for i := 0; i < n; i++ {
		c.H(circuit.Qubit(i))
		for j := i + 1; j < n; j++ {
			ctrl, tgt := circuit.Qubit(j), circuit.Qubit(i)
			c.CNOT(ctrl, tgt)
			c.T(tgt)
			c.CNOT(ctrl, tgt)
		}
	}
	return c, nil
}

// RandomCliffordT returns a random circuit of the given two-qubit gate
// count over n qubits: each step applies a CNOT on a uniform qubit pair,
// interleaved with T gates at the given density (T gates per CNOT). The
// same seed reproduces the same circuit.
//
//deadcheck:keep random workloads for subdiv's stitching tests
func RandomCliffordT(n, cnots int, tDensity float64, seed int64) (*circuit.Circuit, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuits: random circuit needs >= 2 qubits, got %d", n)
	}
	if cnots < 0 {
		return nil, fmt.Errorf("circuits: negative cnot count %d", cnots)
	}
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for i := 0; i < n; i++ {
		c.H(circuit.Qubit(i))
	}
	for g := 0; g < cnots; g++ {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		c.CNOT(circuit.Qubit(a), circuit.Qubit(b))
		if rng.Float64() < tDensity {
			c.T(circuit.Qubit(b))
		}
	}
	return c, nil
}

// HierarchicalOptions tunes HierarchicalRandom.
type HierarchicalOptions struct {
	// Blocks is the number of dense blocks (>= 2).
	Blocks int
	// QubitsPerBlock sizes each block (>= 2).
	QubitsPerBlock int
	// Phases is how many dense-then-permute phases to emit (>= 1).
	Phases int
	// IntraCNOTs is the dense CNOT count per block per phase.
	IntraCNOTs int
	// BridgeCNOTs is the sparse inter-block CNOT count per phase
	// boundary (the "permutation edges" analogue of Fig. 4b).
	BridgeCNOTs int
	// Barriers inserts a fence between phases, exposing the phase
	// structure to the windowed stitcher exactly as §V.A's barriers
	// expose distillation rounds.
	Barriers bool
	// Shuffle re-partitions qubits into blocks at every phase, the
	// analogue of the inter-round permutation that destroys a factory
	// graph's planarity (Fig. 4b): each phase demands a different
	// locality pattern, so no single static embedding satisfies all of
	// them. Without Shuffle the block membership is static and a global
	// embedding is already near optimal.
	Shuffle bool
	// Seed drives the random choices.
	Seed int64
}

// HierarchicalRandom emits a synthetic circuit with the same two-scale
// structure as a multi-level factory: dense planar-ish activity inside
// blocks, sparse permutation edges between phases. It is the fixture for
// the §IX stitching generalization study: window-stitched mapping should
// beat a single global mapping on it, and neither should beat the other
// on a structure-free RandomCliffordT control.
func HierarchicalRandom(opt HierarchicalOptions) (*circuit.Circuit, error) {
	if opt.Blocks < 2 {
		return nil, fmt.Errorf("circuits: need >= 2 blocks, got %d", opt.Blocks)
	}
	if opt.QubitsPerBlock < 2 {
		return nil, fmt.Errorf("circuits: need >= 2 qubits per block, got %d", opt.QubitsPerBlock)
	}
	if opt.Phases < 1 {
		return nil, fmt.Errorf("circuits: need >= 1 phase, got %d", opt.Phases)
	}
	if opt.IntraCNOTs < 1 {
		opt.IntraCNOTs = 2 * opt.QubitsPerBlock
	}
	if opt.BridgeCNOTs < 0 {
		return nil, fmt.Errorf("circuits: negative bridge count %d", opt.BridgeCNOTs)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := opt.Blocks * opt.QubitsPerBlock
	c := circuit.New(n)
	// member[blk*QubitsPerBlock+i] is the qubit playing slot i of block
	// blk in the current phase; Shuffle re-deals it per phase.
	member := make([]circuit.Qubit, n)
	for i := range member {
		member[i] = circuit.Qubit(i)
	}
	inBlock := func(blk, i int) circuit.Qubit {
		return member[blk*opt.QubitsPerBlock+i]
	}
	all := make([]circuit.Qubit, n)
	for i := range all {
		all[i] = circuit.Qubit(i)
		c.H(all[i])
	}
	for ph := 0; ph < opt.Phases; ph++ {
		if opt.Shuffle && ph > 0 {
			rng.Shuffle(len(member), func(a, b int) { member[a], member[b] = member[b], member[a] })
		}
		for blk := 0; blk < opt.Blocks; blk++ {
			for g := 0; g < opt.IntraCNOTs; g++ {
				// Prefer near-neighbor pairs inside the block so each
				// block's phase subgraph stays (near-)planar.
				i := rng.Intn(opt.QubitsPerBlock)
				span := 1 + rng.Intn(2)
				j := i + span
				if j >= opt.QubitsPerBlock {
					j = i - span
					if j < 0 {
						j = (i + 1) % opt.QubitsPerBlock
					}
				}
				if i == j {
					continue
				}
				c.CNOT(inBlock(blk, i), inBlock(blk, j))
				if rng.Float64() < 0.3 {
					c.T(inBlock(blk, j))
				}
			}
		}
		if ph == opt.Phases-1 {
			break
		}
		// Phase boundary: sparse bridges emulating the inter-round
		// permutation, then an optional barrier.
		for g := 0; g < opt.BridgeCNOTs; g++ {
			ba := rng.Intn(opt.Blocks)
			bb := rng.Intn(opt.Blocks - 1)
			if bb >= ba {
				bb++
			}
			c.CNOT(inBlock(ba, rng.Intn(opt.QubitsPerBlock)), inBlock(bb, rng.Intn(opt.QubitsPerBlock)))
		}
		if opt.Barriers {
			c.Barrier(all)
		}
	}
	return c, nil
}
