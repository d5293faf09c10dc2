package graph

import (
	"math/rand"
	"sort"
)

// Communities detects community structure (§VI.B.1) with weighted
// asynchronous label propagation followed by a greedy modularity-guided
// merge of small communities. The result maps every vertex to a dense
// community id in [0, count). Isolated vertices each form their own
// community. rng drives the propagation order; the same seed reproduces
// the same communities.
func Communities(g *Graph, rng *rand.Rand) ([]int, int) {
	label := make([]int, g.N)
	for i := range label {
		label[i] = i
	}
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	weight := make(map[int]float64)
	const maxSweeps = 50
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		changed := 0
		for _, v := range order {
			for k := range weight {
				delete(weight, k)
			}
			g.Neighbors(v, func(u int, w float64) {
				weight[label[u]] += w
			})
			if len(weight) == 0 {
				continue
			}
			best, bestW := label[v], weight[label[v]]
			// Deterministic tie-break: smallest label among the heaviest.
			keys := make([]int, 0, len(weight))
			for k := range weight {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				if weight[k] > bestW {
					best, bestW = k, weight[k]
				}
			}
			if best != label[v] {
				label[v] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	label, count := densify(label)
	label, count = mergeTiny(g, label, count)
	return label, count
}

// densify renumbers labels to dense ids preserving first-appearance order.
func densify(label []int) ([]int, int) {
	next := 0
	remap := make(map[int]int)
	out := make([]int, len(label))
	for i, l := range label {
		id, ok := remap[l]
		if !ok {
			id = next
			remap[l] = id
			next++
		}
		out[i] = id
	}
	return out, next
}

// mergeTiny folds communities of one or two vertices into the neighboring
// community they share the most edge weight with, which reduces
// fragmentation before the force-directed community moves.
func mergeTiny(g *Graph, label []int, count int) ([]int, int) {
	size := make([]int, count)
	for _, l := range label {
		size[l]++
	}
	for v := 0; v < g.N; v++ {
		if size[label[v]] > 2 {
			continue
		}
		best, bestW := -1, 0.0
		agg := make(map[int]float64)
		g.Neighbors(v, func(u int, w float64) {
			if label[u] != label[v] {
				agg[label[u]] += w
			}
		})
		keys := make([]int, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if agg[k] > bestW {
				best, bestW = k, agg[k]
			}
		}
		if best >= 0 {
			size[label[v]]--
			label[v] = best
			size[best]++
		}
	}
	return densify(label)
}
