package layout

import (
	"math/rand"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
)

// Linear produces the hand-optimized linear mapping baseline of Fowler et
// al. [19] as used throughout the paper's evaluation: the entire factory
// occupies a single row of tiles, module after module in round-major
// order, each module's qubits ordered so that every in-module interaction
// is local (each ancilla flanked by the raw states it consumes, each
// output beside the tail ancilla it entangles with). This is near-optimal
// for single-level factories but strands multi-level permutation braids on
// a handful of shared channel rows — the latency blowup of Fig. 10c. With
// qubit reuse, later rounds mostly rename already-placed qubits and the
// row stays short.
func Linear(f *bravyi.Factory) *Placement {
	p := NewPlacement(f.Circuit.NumQubits, f.Circuit.NumQubits, 1)
	col := 0
	for _, r := range f.Rounds {
		for _, mi := range r.Modules {
			m := f.Modules[mi]
			for _, q := range ModuleLinearOrder(&m, f.Params.K) {
				if p.At(int(q)) != Unplaced {
					continue // reused: already placed
				}
				p.Set(int(q), Point{X: col, Y: 0})
				col++
			}
		}
	}
	p.W = col
	if p.W == 0 {
		p.W = 1
	}
	return p
}

// ModuleLinearOrder returns the hand-optimized 1-D ordering of one
// module's registers. The ancilla chain anc1..anc_{k+4} runs left to
// right (the tail's CNOT chain only couples consecutive ancillas), each
// ancilla sits between the two raw states injected into it, and each
// output out_i with its tail raw state sits beside anc_{5+i}. anc0, the
// CXX control, leads the row; its braid tree extends along the row.
func ModuleLinearOrder(m *bravyi.Module, k int) []circuit.Qubit {
	order := make([]circuit.Qubit, 0, 5*k+13)
	order = append(order, m.Anc[0])
	for i := 1; i < k+5; i++ {
		order = append(order, m.Raw[2*i-2], m.Anc[i], m.Raw[2*i-1])
		if i >= 5 {
			j := i - 5
			order = append(order, m.Out[j], m.Raw[2*(k+4)+j])
		}
	}
	return order
}

// Random places all qubits uniformly at random on a near-square grid just
// large enough to hold them; the Table I "Random" baseline.
func Random(n int, rng *rand.Rand) *Placement {
	w, h := GridFor(n, 1)
	p := NewPlacement(n, w, h)
	tiles := RowMajorTiles(w*h, w)
	rng.Shuffle(len(tiles), func(i, j int) { tiles[i], tiles[j] = tiles[j], tiles[i] })
	for q := 0; q < n; q++ {
		p.Set(q, tiles[q])
	}
	return p
}

// RandomOnTiles places qubits uniformly at random over an explicit tile
// set (len(tiles) must be >= n); used for randomized-mapping sweeps that
// keep the footprint fixed (Fig. 6).
func RandomOnTiles(n int, tiles []Point, w, h int, rng *rand.Rand) *Placement {
	p := NewPlacement(n, w, h)
	perm := rng.Perm(len(tiles))
	for q := 0; q < n; q++ {
		p.Set(q, tiles[perm[q]])
	}
	return p
}
