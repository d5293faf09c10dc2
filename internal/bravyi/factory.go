package bravyi

import (
	"fmt"
	"slices"

	"magicstate/internal/circuit"
)

// Round records one block-code level's extent within the factory circuit.
// Rounds after the first begin with a permutation phase of Move braids
// that relocate the previous round's outputs into this round's input slot
// tiles (the inter-round permutation of §II.G / Fig. 2), followed by the
// round's module bodies.
type Round struct {
	Index   int   // 1-based
	Modules []int // global module indices
	// PermStart/PermEnd delimit the permutation Move gates feeding this
	// round (empty for round 1).
	PermStart, PermEnd int
	// GateStart/GateEnd delimit the whole round including the permutation
	// phase, excluding the trailing barrier.
	GateStart, GateEnd int
	// Fresh lists qubit ids first allocated in this round; with reuse the
	// later rounds' lists shrink because renamed qubits come from pools.
	Fresh []circuit.Qubit
}

// Wire is one inter-round permutation edge: output port FromPort of module
// FromModule feeds input slot ToSlot of module ToModule. GateIdx is the
// Move gate realizing the relocation.
type Wire struct {
	FromModule, FromPort int
	ToModule, ToSlot     int
	GateIdx              int
}

// Factory is a fully generated multi-level block-code distillation circuit
// plus its structural metadata.
type Factory struct {
	Params  Params
	Circuit *circuit.Circuit
	Modules []Module
	Rounds  []Round
	// Wires holds every inter-round permutation edge, grouped by the
	// consuming round in ascending order.
	Wires []Wire
}

// Build generates the factory circuit for p. Every module occupies the
// full 5K+13 qubit footprint (3K+8 input slots, K+5 ancillas, K outputs).
// Round 1's input slots hold freshly injected raw states; later rounds'
// slots are filled by an explicit permutation phase of Move braids from
// the previous round's outputs, wired under the correlation constraint of
// §II.G: each module receives at most one state from any previous-round
// module. With p.Reuse, later rounds rename measured/consumed qubits
// (sharing-after-measurement, §V.B) instead of allocating fresh tiles.
func Build(p Params) (*Factory, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := p.K
	f := &Factory{Params: p, Circuit: circuit.New(0)}
	c := f.Circuit
	gates, moves := p.gateCounts()
	c.Gates = make([]circuit.Gate, 0, gates)
	f.Modules = make([]Module, 0, p.TotalModules())
	f.Wires = make([]Wire, 0, moves)

	// freed accumulates measured/consumed qubit ids available for reuse;
	// freedSet[q] marks membership, indexed by qubit id. Granting ids
	// keeps the pool's order, so it needs re-sorting only after free has
	// added to it: once per round, not once per register.
	var freed []circuit.Qubit
	var freedSet []bool
	sorted := true
	free := func(q circuit.Qubit) {
		if int(q) >= len(freedSet) {
			freedSet = append(freedSet, make([]bool, c.NumQubits-len(freedSet))...)
		}
		if !freedSet[q] {
			freedSet[q] = true
			freed = append(freed, q)
			sorted = false
		}
	}
	assigner := p.Assigner
	if assigner == nil {
		assigner = contiguousAssigner
	}

	// Qubits are left unnamed: a factory allocates thousands of them, ids
	// are self-describing under the documented allocation order
	// (module-major, raw/anc/out register-minor), and naming each one cost
	// a fmt.Sprintf allocation that dominated generation profiles.
	alloc := func(round, inRound, n int, fresh *[]circuit.Qubit) []circuit.Qubit {
		qs := make([]circuit.Qubit, 0, n)
		if p.Reuse && round > 1 {
			if !sorted {
				slices.Sort(freed)
				sorted = true
			}
			reused := assigner(round, inRound, n, freed)
			for _, q := range reused {
				if len(qs) == n {
					break
				}
				if q >= 0 && int(q) < len(freedSet) && freedSet[q] {
					freedSet[q] = false
					qs = append(qs, q)
				}
			}
			// Drop the granted ids from the pool, keeping it sorted. The
			// default assigner grants a prefix, which trims in O(granted);
			// only grants from mid-pool pay for a full compaction.
			head := 0
			for head < len(freed) && !freedSet[freed[head]] {
				head++
			}
			freed = freed[head:]
			if head < len(qs) {
				still := freed[:0]
				for _, q := range freed {
					if freedSet[q] {
						still = append(still, q)
					}
				}
				freed = still
			}
		}
		for len(qs) < n {
			q := c.AddQubit("")
			qs = append(qs, q)
			*fresh = append(*fresh, q)
		}
		return qs
	}

	groupSize := 3*k + 8 // previous-round modules per group feeding k next modules
	prevOuts := [][]circuit.Qubit(nil)
	prevModules := []int(nil)
	for r := 1; r <= p.Levels; r++ {
		nMods := p.ModulesInRound(r)
		round := Round{Index: r, GateStart: len(c.Gates), Modules: make([]int, 0, nMods)}

		// Allocate every module's registers first so the permutation
		// phase can target the slots.
		base := len(f.Modules)
		for im := 0; im < nMods; im++ {
			m := Module{Round: r, Index: base + im, InRound: im}
			if r == 1 {
				m.Group = im / groupSize
			} else {
				m.Group = im / k
			}
			// Slots reuse first (they free earliest next round), then
			// ancillas, then outputs.
			m.Raw = alloc(r, im, 3*k+8, &round.Fresh)
			m.Anc = alloc(r, im, k+5, &round.Fresh)
			m.Out = alloc(r, im, k, &round.Fresh)
			f.Modules = append(f.Modules, m)
			round.Modules = append(round.Modules, m.Index)
		}

		// Permutation phase: move previous-round outputs into this
		// round's input slots. Within group g, previous module j's port i
		// feeds next module i's slot j.
		round.PermStart = len(c.Gates)
		if r > 1 {
			for im := 0; im < nMods; im++ {
				m := &f.Modules[base+im]
				g := im / k
				pi := im % k
				for s := 0; s < 3*k+8; s++ {
					prevInRound := g*groupSize + s
					src := prevOuts[prevInRound][pi]
					gi := len(c.Gates)
					c.Move(src, m.Raw[s])
					c.Gates[gi].Round = r
					c.Gates[gi].Module = m.Index
					f.Wires = append(f.Wires, Wire{
						FromModule: prevModules[prevInRound],
						FromPort:   pi,
						ToModule:   m.Index,
						ToSlot:     s,
						GateIdx:    gi,
					})
				}
			}
		}
		round.PermEnd = len(c.Gates)

		// Module bodies. Slot states are consumed by injection and
		// ancillas measured by MeasX: both become reusable in the next
		// round (no allocation happens before then).
		thisOuts := make([][]circuit.Qubit, 0, nMods)
		for im := 0; im < nMods; im++ {
			m := &f.Modules[base+im]
			emitModule(c, m)
			thisOuts = append(thisOuts, m.Out)
			for _, q := range m.Raw {
				free(q)
			}
			for _, q := range m.Anc {
				free(q)
			}
		}
		round.GateEnd = len(c.Gates)
		f.Rounds = append(f.Rounds, round)

		if p.Barriers && r < p.Levels {
			all := make([]circuit.Qubit, c.NumQubits)
			for i := range all {
				all[i] = circuit.Qubit(i)
			}
			c.Barrier(all)
			c.Gates[len(c.Gates)-1].Round = r
		}
		prevOuts = thisOuts
		prevModules = round.Modules
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("bravyi: generated circuit invalid: %w", err)
	}
	return f, nil
}

// contiguousAssigner is the default reuse policy: each allocation takes
// the head of the remaining (sorted) pool. Build removes granted qubits
// from the pool, so consecutive modules receive consecutive id runs,
// which keeps each reused region spatially coherent under module-major
// placements.
func contiguousAssigner(round, moduleInRound, need int, pool []circuit.Qubit) []circuit.Qubit {
	if need > len(pool) {
		need = len(pool)
	}
	return pool[:need]
}

// ReassignPorts applies a permutation of module pm's output ports: every
// wire previously sourced from port j is re-sourced from port perm[j].
// The permutation Move gates' sources are rewritten in place; slots and
// module bodies are untouched (outputs within a module are
// interchangeable, §VII.B.2). perm must be a permutation of [0,K).
func (f *Factory) ReassignPorts(pm int, perm []int) error {
	k := f.Params.K
	if pm < 0 || pm >= len(f.Modules) {
		return fmt.Errorf("bravyi: module %d out of range", pm)
	}
	if len(perm) != k {
		return fmt.Errorf("bravyi: perm length %d, want %d", len(perm), k)
	}
	seen := make([]bool, k)
	for _, j := range perm {
		if j < 0 || j >= k || seen[j] {
			return fmt.Errorf("bravyi: perm %v is not a permutation of [0,%d)", perm, k)
		}
		seen[j] = true
	}
	mod := &f.Modules[pm]
	for wi := range f.Wires {
		w := &f.Wires[wi]
		if w.FromModule != pm {
			continue
		}
		newPort := perm[w.FromPort]
		w.FromPort = newPort
		f.Circuit.Gates[w.GateIdx].Control = mod.Out[newPort]
	}
	return nil
}
