// Package graph implements the program interaction graph of §VI: vertices
// are logical qubits, edges are two-qubit interactions weighted by
// multiplicity. It also provides the structural analyses the mappers rely
// on: connected components, per-timestep 2-coloring for the magnetic
// dipole heuristic, and community detection.
package graph

import "magicstate/internal/circuit"

// Edge is an undirected interaction between qubits U < V with a weight
// equal to the number of gates acting on the pair.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is an undirected weighted multigraph collapsed to simple edges.
type Graph struct {
	N     int
	Edges []Edge
	adj   [][]int // vertex -> edge indices
}

// New returns an empty graph over n vertices.
func New(n int) *Graph {
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddEdge inserts or reinforces the undirected edge {u, v} with the given
// weight. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	for _, ei := range g.adj[u] {
		e := &g.Edges[ei]
		if e.U == u && e.V == v {
			e.Weight += w
			return
		}
	}
	g.Edges = append(g.Edges, Edge{U: u, V: v, Weight: w})
	ei := len(g.Edges) - 1
	g.adj[u] = append(g.adj[u], ei)
	g.adj[v] = append(g.adj[v], ei)
}

// Neighbors calls fn for every neighbor of u with the connecting edge's
// weight.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	for _, ei := range g.adj[u] {
		e := g.Edges[ei]
		v := e.U
		if v == u {
			v = e.V
		}
		fn(v, e.Weight)
	}
}

// Incident returns the indices of the edges touching u, in ascending edge
// order. The slice aliases the graph's adjacency storage: callers must
// treat it as read-only.
func (g *Graph) Incident(u int) []int { return g.adj[u] }

// FromCircuit builds the interaction graph of c. Each two-qubit gate
// contributes weight 1 to its pair; a CXX contributes one edge from the
// control to each target; barriers contribute nothing (they are scheduling
// fences, not interactions).
func FromCircuit(c *circuit.Circuit) *Graph {
	g := New(c.NumQubits)
	for i := range c.Gates {
		gt := &c.Gates[i]
		switch gt.Kind {
		case circuit.KindCNOT, circuit.KindInjectT, circuit.KindInjectTdag:
			if gt.Control != circuit.NoQubit {
				g.AddEdge(int(gt.Control), int(gt.Targets[0]), 1)
			}
		case circuit.KindCXX:
			for _, t := range gt.Targets {
				g.AddEdge(int(gt.Control), int(t), 1)
			}
		case circuit.KindMove:
			g.AddEdge(int(gt.Control), int(gt.Dest), 1)
		}
	}
	return g
}

// Components returns the connected component id of every vertex and the
// number of components. Ids are assigned in increasing order of the
// smallest vertex in each component, so output is deterministic.
//
//deadcheck:keep connectivity checks in protocols' TestCircuit15to1InteractionGraphConnected
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.N)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int
	for v := 0; v < g.N; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = count
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			g.Neighbors(u, func(w int, _ float64) {
				if comp[w] == -1 {
					comp[w] = count
					queue = append(queue, w)
				}
			})
		}
		count++
	}
	return comp, count
}
