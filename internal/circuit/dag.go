package circuit

// DAG is the data-dependency graph of a circuit: Succ[i] lists gates that
// directly depend on gate i, Pred counts are available via InDegree. The
// hazard rule follows the paper's simulator (§VIII.A): the presence of the
// same qubit in two instructions makes the later one depend on the earlier,
// with no commutativity analysis.
type DAG struct {
	NumGates int
	Succ     [][]int
	preds    []int
}

// Deps builds the dependency DAG of c. Each gate depends on the most
// recent earlier gate touching each of its operands (one edge per operand
// chain, deduplicated).
//
// The successor lists are laid out as slices of one shared backing array
// (CSR form), so building the DAG costs a constant number of allocations
// regardless of circuit size; the simulator caches the result per circuit
// and reuses it across repeated simulations.
func Deps(c *Circuit) *DAG {
	n := len(c.Gates)
	d := &DAG{NumGates: n}
	d.Succ = make([][]int, n)
	d.preds = make([]int, n)
	last := make([]int, c.NumQubits)
	for i := range last {
		last[i] = -1
	}
	// Pass 1: collect deduplicated (pred, gate) edges in discovery order
	// and count out-degrees. A gate's predecessors are deduplicated with a
	// stamp per gate: seen[p] == i+1 iff p is already recorded as a
	// predecessor of gate i. A barrier spans every qubit and can have as
	// many distinct predecessors as operands, so the check must be O(1)
	// rather than a scan over the predecessors found so far.
	type edge struct{ p, i int }
	edges := make([]edge, 0, 2*n)
	outdeg := make([]int, n)
	seen := make([]int, n)
	var ops []Qubit
	for i := range c.Gates {
		ops = c.Gates[i].AppendOperands(ops[:0])
		for _, q := range ops {
			if p := last[q]; p >= 0 && p != i && seen[p] != i+1 {
				seen[p] = i + 1
				edges = append(edges, edge{p, i})
				outdeg[p]++
				d.preds[i]++
			}
			last[q] = i
		}
	}
	// Pass 2: carve Succ out of one backing array and fill it. Edges were
	// recorded with ascending gate index, so each successor list comes out
	// sorted, matching the per-gate append order of the naive build.
	backing := make([]int, len(edges))
	off := 0
	for p, deg := range outdeg {
		if deg == 0 {
			continue
		}
		d.Succ[p] = backing[off : off : off+deg]
		off += deg
	}
	for _, e := range edges {
		d.Succ[e.p] = append(d.Succ[e.p], e.i)
	}
	return d
}

// InDegree returns the number of direct dependencies of gate i.
func (d *DAG) InDegree(i int) int { return d.preds[i] }

// Levels returns the ASAP level of each gate: level 0 gates have no
// dependencies; otherwise level = 1 + max(level of preds). Gates on the
// same level could execute concurrently given unlimited routing.
func (d *DAG) Levels() []int {
	lvl := make([]int, d.NumGates)
	for i := 0; i < d.NumGates; i++ {
		for _, s := range d.Succ[i] {
			if lvl[i]+1 > lvl[s] {
				lvl[s] = lvl[i] + 1
			}
		}
	}
	return lvl
}
