// Package partition implements the recursive graph-partitioning grid
// embedding of §VI.B.2: a multilevel bisection (heavy-edge matching
// coarsening, greedy min-cut on the coarsest graph, Kernighan-Lin style
// refinement during uncoarsening), where every bisection of the
// interaction graph is matched by a bisection of the grid region being
// filled, following the METIS/SCOTCH lineage the paper cites [45-49].
package partition

import (
	"math/rand"
	"sort"

	"magicstate/internal/graph"
	"magicstate/internal/layout"
)

// Embed places every vertex of g onto a w x h grid (w*h >= g.N) by
// recursive bisection. rng breaks ties during coarsening and seeding; the
// same seed reproduces the same embedding.
func Embed(g *graph.Graph, w, h int, rng *rand.Rand) *layout.Placement {
	p := layout.NewPlacement(g.N, w, h)
	verts := make([]int, g.N)
	for i := range verts {
		verts[i] = i
	}
	embedRegion(g, verts, region{0, 0, w, h}, p, rng)
	return p
}

// EmbedSquare embeds onto the smallest near-square grid.
func EmbedSquare(g *graph.Graph, rng *rand.Rand) *layout.Placement {
	w, h := layout.GridFor(g.N, 1)
	return Embed(g, w, h, rng)
}

type region struct{ x, y, w, h int }

func (r region) tiles() int { return r.w * r.h }

// embedRegion recursively assigns verts to tiles of r.
func embedRegion(g *graph.Graph, verts []int, r region, p *layout.Placement, rng *rand.Rand) {
	if len(verts) == 0 {
		return
	}
	if len(verts) == 1 {
		p.Set(verts[0], layout.Point{X: r.x, Y: r.y})
		return
	}
	if r.tiles() <= 1 {
		// Should not happen for well-sized grids; drop extra vertices on
		// the single tile's neighbors is impossible, so panic loudly in
		// development via placement validation later.
		p.Set(verts[0], layout.Point{X: r.x, Y: r.y})
		return
	}
	// Split the region along its longer axis.
	var rA, rB region
	if r.w >= r.h {
		wA := r.w / 2
		rA = region{r.x, r.y, wA, r.h}
		rB = region{r.x + wA, r.y, r.w - wA, r.h}
	} else {
		hA := r.h / 2
		rA = region{r.x, r.y, r.w, hA}
		rB = region{r.x, r.y + hA, r.w, r.h - hA}
	}
	// Target part sizes proportional to tile counts, clamped to fit.
	nA := (len(verts)*rA.tiles() + r.tiles()/2) / r.tiles()
	if nA > rA.tiles() {
		nA = rA.tiles()
	}
	if len(verts)-nA > rB.tiles() {
		nA = len(verts) - rB.tiles()
	}
	if nA < 0 {
		nA = 0
	}
	if nA > len(verts) {
		nA = len(verts)
	}
	sub, orig := g.Subgraph(verts)
	partA := Bisect(sub, nA, rng)
	var vertsA, vertsB []int
	for i, inA := range partA {
		if inA {
			vertsA = append(vertsA, orig[i])
		} else {
			vertsB = append(vertsB, orig[i])
		}
	}
	embedRegion(g, vertsA, rA, p, rng)
	embedRegion(g, vertsB, rB, p, rng)
}

// Bisect splits g's vertices into a part of exactly nA vertices (returned
// as a bool mask) and the rest, minimizing the weight of cut edges via
// weight-aware multilevel coarsening plus KL refinement.
func Bisect(g *graph.Graph, nA int, rng *rand.Rand) []bool {
	w := make([]int, g.N)
	for i := range w {
		w[i] = 1
	}
	mask := bisectW(g, w, nA, rng)
	rebalanceW(g, w, mask, nA)
	klRefine(g, mask, nil)
	rebalanceW(g, w, mask, nA)
	return mask
}

// bisectW is the multilevel core: vweight[v] counts the fine vertices a
// (possibly coarse) vertex represents and targetA is measured in fine
// vertices, so the split target survives coarsening unchanged.
func bisectW(g *graph.Graph, vweight []int, targetA int, rng *rand.Rand) []bool {
	total := 0
	for _, w := range vweight {
		total += w
	}
	if targetA <= 0 {
		return make([]bool, g.N)
	}
	if targetA >= total {
		mask := make([]bool, g.N)
		for i := range mask {
			mask[i] = true
		}
		return mask
	}
	const coarsestSize = 24
	if g.N > coarsestSize {
		match := heavyEdgeMatching(g, rng)
		coarse, mapDown := contract(g, match)
		if coarse.N < g.N {
			cw := make([]int, coarse.N)
			for v := 0; v < g.N; v++ {
				cw[mapDown[v]] += vweight[v]
			}
			coarseMask := bisectW(coarse, cw, targetA, rng)
			mask := make([]bool, g.N)
			for v := 0; v < g.N; v++ {
				mask[v] = coarseMask[mapDown[v]]
			}
			rebalanceW(g, vweight, mask, targetA)
			klRefine(g, mask, nil)
			rebalanceW(g, vweight, mask, targetA)
			return mask
		}
	}
	mask := greedyGrowW(g, vweight, targetA, rng)
	klRefine(g, mask, nil)
	rebalanceW(g, vweight, mask, targetA)
	return mask
}

// heavyEdgeMatching pairs each unmatched vertex with its heaviest-edge
// unmatched neighbor. match[v] == v means unmatched.
func heavyEdgeMatching(g *graph.Graph, rng *rand.Rand) []int {
	match := make([]int, g.N)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(g.N)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best, bestW := -1, 0.0
		g.Neighbors(v, func(u int, w float64) {
			if match[u] == -1 && u != v && w > bestW {
				best, bestW = u, w
			}
		})
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v
		}
	}
	return match
}

// contract merges matched pairs into single coarse vertices.
func contract(g *graph.Graph, match []int) (*graph.Graph, []int) {
	mapDown := make([]int, g.N)
	next := 0
	for v := 0; v < g.N; v++ {
		if match[v] >= v || match[v] == -1 { // representative: smaller id of the pair
			mapDown[v] = next
			next++
		}
	}
	for v := 0; v < g.N; v++ {
		if match[v] < v {
			mapDown[v] = mapDown[match[v]]
		}
	}
	coarse := graph.New(next)
	for _, e := range g.Edges {
		cu, cv := mapDown[e.U], mapDown[e.V]
		if cu != cv {
			coarse.AddEdge(cu, cv, e.Weight)
		}
	}
	return coarse, mapDown
}

// greedyGrowW seeds part A at the highest weighted-degree vertex and
// grows it by repeatedly absorbing the outside vertex with the largest
// connection to A until A's fine-vertex weight reaches targetA.
func greedyGrowW(g *graph.Graph, vweight []int, targetA int, rng *rand.Rand) []bool {
	mask := make([]bool, g.N)
	seed := 0
	bestDeg := -1.0
	for v := 0; v < g.N; v++ {
		if d := g.WeightedDegree(v); d > bestDeg {
			bestDeg, seed = d, v
		}
	}
	mask[seed] = true
	weightA := vweight[seed]
	gain := make([]float64, g.N)
	g.Neighbors(seed, func(u int, w float64) { gain[u] += w })
	for weightA < targetA {
		best, bestGain := -1, -1.0
		for v := 0; v < g.N; v++ {
			if !mask[v] && gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if best == -1 {
			for v := 0; v < g.N; v++ {
				if !mask[v] {
					best = v
					break
				}
			}
			if best == -1 {
				break
			}
		}
		mask[best] = true
		weightA += vweight[best]
		g.Neighbors(best, func(u int, w float64) { gain[u] += w })
	}
	return mask
}

// rebalanceW moves vertices across the cut (best connection gain first,
// breaking ties toward light vertices) until part A's fine weight is as
// close to targetA as vertex granularity allows.
func rebalanceW(g *graph.Graph, vweight []int, mask []bool, targetA int) {
	weightA := 0
	for v, in := range mask {
		if in {
			weightA += vweight[v]
		}
	}
	for weightA != targetA {
		fromA := weightA > targetA
		need := weightA - targetA
		if need < 0 {
			need = -need
		}
		best, bestGain := -1, -1e18
		for v := 0; v < g.N; v++ {
			if mask[v] != fromA || vweight[v] > need {
				continue
			}
			gain := 0.0
			g.Neighbors(v, func(u int, w float64) {
				if mask[u] == mask[v] {
					gain -= w
				} else {
					gain += w
				}
			})
			if gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best == -1 {
			return // no vertex small enough to close the gap at this level
		}
		mask[best] = !mask[best]
		if fromA {
			weightA -= vweight[best]
		} else {
			weightA += vweight[best]
		}
	}
}

// klRefine performs Kernighan-Lin style pairwise swaps across the cut
// while any swap strictly reduces cut weight, preserving part sizes.
// fixed (optional) marks vertices that may not move.
func klRefine(g *graph.Graph, mask []bool, fixed []bool) {
	for pass := 0; pass < 8; pass++ {
		improved := false
		// External-internal gain per vertex.
		gain := make([]float64, g.N)
		for v := 0; v < g.N; v++ {
			g.Neighbors(v, func(u int, w float64) {
				if mask[u] == mask[v] {
					gain[v] -= w
				} else {
					gain[v] += w
				}
			})
		}
		// Consider boundary vertices sorted by gain.
		var cand []int
		for v := 0; v < g.N; v++ {
			if fixed != nil && fixed[v] {
				continue
			}
			if gain[v] > 0 {
				cand = append(cand, v)
			}
		}
		sort.Slice(cand, func(i, j int) bool { return gain[cand[i]] > gain[cand[j]] })
		used := make(map[int]bool)
		for _, a := range cand {
			if used[a] {
				continue
			}
			// Find the best partner on the other side.
			bestB, bestGain := -1, 0.0
			for _, b := range cand {
				if used[b] || mask[b] == mask[a] {
					continue
				}
				wab := 0.0
				g.Neighbors(a, func(u int, w float64) {
					if u == b {
						wab = w
					}
				})
				tg := gain[a] + gain[b] - 2*wab
				if tg > bestGain {
					bestB, bestGain = b, tg
				}
			}
			if bestB >= 0 {
				mask[a] = !mask[a]
				mask[bestB] = !mask[bestB]
				used[a], used[bestB] = true, true
				improved = true
				// Refresh gains of the neighborhood lazily: full
				// recompute next pass keeps this simple and correct.
			}
		}
		if !improved {
			break
		}
	}
}
