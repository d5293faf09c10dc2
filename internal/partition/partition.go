// Package partition implements the recursive graph-partitioning grid
// embedding of §VI.B.2: a multilevel bisection (heavy-edge matching
// coarsening, greedy min-cut on the coarsest graph, Kernighan-Lin style
// refinement during uncoarsening), where every bisection of the
// interaction graph is matched by a bisection of the grid region being
// filled, following the METIS/SCOTCH lineage the paper cites [45-49].
package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"magicstate/internal/graph"
	"magicstate/internal/layout"
)

// coarsestSize is the vertex count at or below which bisectW stops
// coarsening and grows the cut greedily.
const coarsestSize = 24

// arenas holds the scratch of finished Embed calls, so repeated
// embeddings across sweep points allocate almost nothing beyond their
// placements.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// Embed places every vertex of g onto a w x h grid (w*h >= g.N) by
// recursive bisection. rng breaks ties during coarsening and seeding; the
// same seed reproduces the same embedding. It panics if the grid has
// fewer tiles than g has vertices.
func Embed(g *graph.Graph, w, h int, rng *rand.Rand) *layout.Placement {
	if w*h < g.N {
		panic(fmt.Sprintf("partition: %d vertices do not fit a %dx%d grid", g.N, w, h))
	}
	p := layout.NewPlacement(g.N, w, h)
	a := arenas.Get().(*arena)
	a.rng = rng
	root := a.nodeAt(0)
	root.g.load(g)
	orig := grow(&root.orig, g.N)
	for i := range orig {
		orig[i] = i
	}
	a.embedRegion(0, region{0, 0, w, h}, p)
	a.rng = nil
	arenas.Put(a)
	return p
}

// EmbedSquare embeds onto the smallest near-square grid.
func EmbedSquare(g *graph.Graph, rng *rand.Rand) *layout.Placement {
	w, h := layout.GridFor(g.N, 1)
	return Embed(g, w, h, rng)
}

type region struct{ x, y, w, h int }

func (r region) tiles() int { return r.w * r.h }

// csr is a weighted simple graph in compressed sparse row form. Edge ei
// joins eu[ei] < ev[ei] with weight ew[ei], and edges keep their creation
// order. Vertex v's neighbours are adj[off[v]:off[v+1]] with weights in
// adjW, listed in ascending edge order: the order graph.Graph.Neighbors
// visits them, so every floating-point sum over a neighbourhood adds in
// the same order.
type csr struct {
	n        int
	eu, ev   []int
	ew       []float64
	off, adj []int
	adjW     []float64
}

// reset empties c to n vertices and no edges.
func (c *csr) reset(n int) {
	c.n = n
	c.eu, c.ev, c.ew = c.eu[:0], c.ev[:0], c.ew[:0]
}

// addEdge appends the edge {u, v}; the caller guarantees it is new.
func (c *csr) addEdge(u, v int, w float64) {
	if u > v {
		u, v = v, u
	}
	c.eu = append(c.eu, u)
	c.ev = append(c.ev, v)
	c.ew = append(c.ew, w)
}

// index builds the adjacency arrays from the edge list.
func (c *csr) index() {
	off := grow(&c.off, c.n+1)
	clear(off)
	for ei, u := range c.eu {
		off[u+1]++
		off[c.ev[ei]+1]++
	}
	for v := 0; v < c.n; v++ {
		off[v+1] += off[v]
	}
	adj, adjW := grow(&c.adj, off[c.n]), grow(&c.adjW, off[c.n])
	// Fill with off[v] as v's cursor; afterwards off[v] holds the start
	// of v+1, so shift it back by one vertex.
	for ei, u := range c.eu {
		v, w := c.ev[ei], c.ew[ei]
		adj[off[u]], adjW[off[u]] = v, w
		off[u]++
		adj[off[v]], adjW[off[v]] = u, w
		off[v]++
	}
	copy(off[1:], off[:c.n])
	off[0] = 0
}

// load copies g's edges, in g's edge order, into c.
func (c *csr) load(g *graph.Graph) {
	c.reset(g.N)
	for _, e := range g.Edges {
		c.addEdge(e.U, e.V, e.Weight)
	}
	c.index()
}

// weightedDegree sums v's incident edge weights in adjacency order.
func (c *csr) weightedDegree(v int) float64 {
	var s float64
	for _, w := range c.adjW[c.off[v]:c.off[v+1]] {
		s += w
	}
	return s
}

// cutGain is v's external minus internal connection weight under mask.
func (c *csr) cutGain(v int, mask []bool) float64 {
	gain := 0.0
	for i := c.off[v]; i < c.off[v+1]; i++ {
		if mask[c.adj[i]] == mask[v] {
			gain -= c.adjW[i]
		} else {
			gain += c.adjW[i]
		}
	}
	return gain
}

// grow reslices *s to length n, reallocating only when its capacity is
// short, and returns it. The contents are not cleared.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// arena is the reusable scratch of one Embed call. Its arrays grow to the
// high-water mark of the calls they have served and are reset, not
// reallocated, on the next call.
type arena struct {
	rng *rand.Rand
	// nodes[d] is the embedding recursion's node at depth d; levels[l]
	// is bisectW's coarsening level l. Both hold pointers, so growing
	// the slice during recursion leaves the callers' nodes in place.
	nodes  []*node
	levels []*level
	// tick issues stamps for the stamp arrays below: a slot is set for
	// the current use iff it holds the current stamp.
	tick int
	// Shared scratch, used by one step at a time.
	idx, perm, ones    []int
	gain               []float64
	cand, candA, candB []int
	usedAt, rowAt      []int
	row                []float64
	lo, hi, start      []int
	bucket, lead, cid  []int
	first, firstAt     []int
}

// node is one embedding recursion node: its region's induced subgraph,
// the original ids of its vertices (ascending), and after bisection the
// local ids of part A followed by those of part B.
type node struct {
	g    csr
	orig []int
	part []int
}

// level is one coarsening level of bisectW: the mask it returns, the
// matching and fine-to-coarse map of its graph, and the coarse graph
// with its vertex weights.
type level struct {
	mask    []bool
	match   []int
	mapDown []int
	coarse  csr
	cw      []int
}

func (a *arena) nodeAt(d int) *node {
	for len(a.nodes) <= d {
		a.nodes = append(a.nodes, new(node))
	}
	return a.nodes[d]
}

func (a *arena) levelAt(l int) *level {
	for len(a.levels) <= l {
		a.levels = append(a.levels, new(level))
	}
	return a.levels[l]
}

func (a *arena) stamp() int {
	a.tick++
	return a.tick
}

// embedRegion recursively assigns the vertices of node d's subgraph to
// tiles of r. The node's original ids ascend, so each child's subgraph
// induced from it with ascending local ids equals the one induced from
// the whole graph: the same bisection inputs, the same rng draws and the
// same placement, at a cost proportional to the node's subgraph.
func (a *arena) embedRegion(d int, r region, p *layout.Placement) {
	nd := a.nodes[d]
	n := nd.g.n
	if n == 0 {
		return
	}
	if n == 1 {
		p.Set(nd.orig[0], layout.Point{X: r.x, Y: r.y})
		return
	}
	if r.tiles() <= 1 {
		// Embed checks w*h >= g.N and every split keeps each part within
		// its region's tiles, so this is unreachable.
		panic(fmt.Sprintf("partition: invariant violated: %d vertices left for %d tiles", n, r.tiles()))
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
	nA := (n*rA.tiles() + r.tiles()/2) / r.tiles()
	if nA > rA.tiles() {
		nA = rA.tiles()
	}
	if n-nA > rB.tiles() {
		nA = n - rB.tiles()
	}
	if nA < 0 {
		nA = 0
	}
	if nA > n {
		nA = n
	}
	mask := a.bisect(&nd.g, nA)
	// The mask lives in shared scratch that the children's bisections
	// reuse, so record the split in the node first.
	part := grow(&nd.part, n)
	k := 0
	for i, inA := range mask {
		if inA {
			part[k] = i
			k++
		}
	}
	kA := k
	for i, inA := range mask {
		if !inA {
			part[k] = i
			k++
		}
	}
	a.embedChild(d, part[:kA], rA, p)
	a.embedChild(d, part[kA:], rB, p)
}

// embedChild induces the subgraph of node d over the ascending local ids
// into node d+1 and embeds it into r.
func (a *arena) embedChild(d int, local []int, r region, p *layout.Placement) {
	parent, child := a.nodes[d], a.nodeAt(d+1)
	g, sub := &parent.g, &child.g
	idx := grow(&a.idx, g.n)
	for i := range idx {
		idx[i] = -1
	}
	orig := grow(&child.orig, len(local))
	for i, v := range local {
		idx[v] = i
		orig[i] = parent.orig[v]
	}
	sub.reset(len(local))
	for ei, u := range g.eu {
		if iu, iv := idx[u], idx[g.ev[ei]]; iu >= 0 && iv >= 0 {
			sub.addEdge(iu, iv, g.ew[ei])
		}
	}
	sub.index()
	a.embedRegion(d+1, r, p)
}

// bisect splits g's vertices into a part of exactly nA vertices (returned
// as a mask in shared scratch) and the rest, minimizing the weight of cut
// edges via weight-aware multilevel coarsening plus KL refinement.
func (a *arena) bisect(g *csr, nA int) []bool {
	ones := grow(&a.ones, g.n)
	for i := range ones {
		ones[i] = 1
	}
	mask, settled := a.bisectW(0, g, ones, nA)
	// Once settled, the mask is one that a full KL pass left unchanged
	// and that the rebalance after it left unchanged. Both are
	// deterministic functions of the mask, and this rebalance has the
	// same vertex weights and target, so a second round would change
	// nothing either.
	if !settled {
		a.rebalanceW(g, ones, mask, nA)
		a.klRefine(g, mask)
		a.rebalanceW(g, ones, mask, nA)
	}
	return mask
}

// bisectW is the multilevel core at coarsening level l: vweight[v] counts
// the fine vertices a (possibly coarse) vertex represents and targetA is
// measured in fine vertices, so the split target survives coarsening
// unchanged. settled reports that the final KL refinement ended on a pass
// that swapped nothing and the final rebalance moved nothing.
func (a *arena) bisectW(l int, g *csr, vweight []int, targetA int) (mask []bool, settled bool) {
	lv := a.levelAt(l)
	mask = grow(&lv.mask, g.n)
	clear(mask)
	total := 0
	for _, w := range vweight {
		total += w
	}
	if targetA <= 0 {
		return mask, false
	}
	if targetA >= total {
		for i := range mask {
			mask[i] = true
		}
		return mask, false
	}
	coarsened := false
	if g.n > coarsestSize {
		match, mapDown := grow(&lv.match, g.n), grow(&lv.mapDown, g.n)
		a.heavyEdgeMatching(g, match)
		coarse := &lv.coarse
		a.contract(g, match, mapDown, coarse)
		if coarse.n < g.n {
			cw := grow(&lv.cw, coarse.n)
			clear(cw)
			for v := 0; v < g.n; v++ {
				cw[mapDown[v]] += vweight[v]
			}
			coarseMask, _ := a.bisectW(l+1, coarse, cw, targetA)
			for v := 0; v < g.n; v++ {
				mask[v] = coarseMask[mapDown[v]]
			}
			a.rebalanceW(g, vweight, mask, targetA)
			coarsened = true
		}
	}
	if !coarsened {
		a.greedyGrowW(g, vweight, targetA, mask)
	}
	settled = a.klRefine(g, mask)
	moved := a.rebalanceW(g, vweight, mask, targetA)
	return mask, settled && !moved
}

// heavyEdgeMatching pairs each unmatched vertex, in a random order, with
// its heaviest-edge unmatched neighbor. match[v] == v means unmatched.
func (a *arena) heavyEdgeMatching(g *csr, match []int) {
	for i := range match {
		match[i] = -1
	}
	for _, v := range a.permInto(g.n) {
		if match[v] != -1 {
			continue
		}
		best, bestW := -1, 0.0
		for i := g.off[v]; i < g.off[v+1]; i++ {
			if u, w := g.adj[i], g.adjW[i]; match[u] == -1 && u != v && w > bestW {
				best, bestW = u, w
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v
		}
	}
}

// permInto replicates rand.Perm into reused storage — including the i==0
// Intn(1) draw the standard library keeps for stream compatibility — so
// matching consumes exactly the rng sequence rng.Perm would.
func (a *arena) permInto(n int) []int {
	m := grow(&a.perm, n)
	for i := 0; i < n; i++ {
		j := a.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// contract merges matched pairs into single coarse vertices: mapDown[v]
// is fine vertex v's coarse id (the pair's smaller id numbers it) and c
// becomes the coarse graph. Fine edges that land on the same coarse pair
// merge into one coarse edge, placed at its first fine edge and summing
// the weights in fine edge order, exactly as repeated graph.AddEdge calls
// would build it.
func (a *arena) contract(g *csr, match, mapDown []int, c *csr) {
	nc := 0
	for v := 0; v < g.n; v++ {
		if match[v] >= v {
			mapDown[v] = nc
			nc++
		}
	}
	for v := 0; v < g.n; v++ {
		if match[v] < v {
			mapDown[v] = mapDown[match[v]]
		}
	}
	// lo[ei] < hi[ei] are fine edge ei's coarse endpoints; lo[ei] is -1
	// when both ends fall into one coarse vertex.
	m := len(g.eu)
	lo, hi := grow(&a.lo, m), grow(&a.hi, m)
	// Bucket the remaining edges by lo. The counting sort is stable, so
	// each bucket lists its edges in fine order, and the first edge of a
	// bucket to reach a coarse neighbour is that coarse edge's first
	// occurrence.
	start := grow(&a.start, nc+1)
	clear(start)
	for ei, u := range g.eu {
		cu, cv := mapDown[u], mapDown[g.ev[ei]]
		if cu == cv {
			lo[ei] = -1
			continue
		}
		lo[ei], hi[ei] = min(cu, cv), max(cu, cv)
		start[lo[ei]+1]++
	}
	for u := 0; u < nc; u++ {
		start[u+1] += start[u]
	}
	bucket := grow(&a.bucket, start[nc])
	for ei, u := range lo {
		if u >= 0 {
			bucket[start[u]] = ei
			start[u]++
		}
	}
	// start[u] now ends bucket u. lead[ei] is the first fine edge on
	// ei's coarse pair.
	lead := grow(&a.lead, m)
	first, firstAt := grow(&a.first, nc), grow(&a.firstAt, nc)
	b := 0
	for u := 0; u < nc; u++ {
		mark := a.stamp()
		for ; b < start[u]; b++ {
			ei := bucket[b]
			v := hi[ei]
			if firstAt[v] != mark {
				firstAt[v], first[v] = mark, ei
			}
			lead[ei] = first[v]
		}
	}
	c.reset(nc)
	cid := grow(&a.cid, m)
	for ei, u := range lo {
		if u < 0 {
			continue
		}
		if l := lead[ei]; l == ei {
			cid[ei] = len(c.eu)
			c.addEdge(u, hi[ei], g.ew[ei])
		} else {
			c.ew[cid[l]] += g.ew[ei]
		}
	}
	c.index()
}

// greedyGrowW seeds part A at the highest weighted-degree vertex and
// grows it by repeatedly absorbing the outside vertex with the largest
// connection to A until A's fine-vertex weight reaches targetA. mask
// must be all false on entry.
func (a *arena) greedyGrowW(g *csr, vweight []int, targetA int, mask []bool) {
	seed := 0
	bestDeg := -1.0
	for v := 0; v < g.n; v++ {
		if d := g.weightedDegree(v); d > bestDeg {
			bestDeg, seed = d, v
		}
	}
	gain := grow(&a.gain, g.n)
	clear(gain)
	absorb := func(v int) {
		mask[v] = true
		for i := g.off[v]; i < g.off[v+1]; i++ {
			gain[g.adj[i]] += g.adjW[i]
		}
	}
	absorb(seed)
	weightA := vweight[seed]
	for weightA < targetA {
		best, bestGain := -1, -1.0
		for v := 0; v < g.n; v++ {
			if !mask[v] && gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if best == -1 {
			for v := 0; v < g.n; v++ {
				if !mask[v] {
					best = v
					break
				}
			}
			if best == -1 {
				break
			}
		}
		absorb(best)
		weightA += vweight[best]
	}
}

// rebalanceW moves vertices across the cut (best connection gain first,
// breaking ties toward light vertices) until part A's fine weight is as
// close to targetA as vertex granularity allows. It reports whether it
// moved any vertex.
func (a *arena) rebalanceW(g *csr, vweight []int, mask []bool, targetA int) (moved bool) {
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
		for v := 0; v < g.n; v++ {
			if mask[v] != fromA || vweight[v] > need {
				continue
			}
			if gain := g.cutGain(v, mask); gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best == -1 {
			return moved // no vertex small enough to close the gap at this level
		}
		mask[best] = !mask[best]
		moved = true
		if fromA {
			weightA -= vweight[best]
		} else {
			weightA += vweight[best]
		}
	}
	return moved
}

// klRefine performs Kernighan-Lin style pairwise swaps across the cut
// while any swap strictly reduces cut weight, preserving part sizes. Each
// of at most 8 passes takes the positive-gain vertices in descending gain
// order and swaps each unused one with its best unused partner on the
// other side; gains are refreshed only between passes. It reports whether
// the last pass swapped nothing, i.e. whether the mask is a fixed point.
func (a *arena) klRefine(g *csr, mask []bool) (settled bool) {
	gain := grow(&a.gain, g.n)
	usedAt, rowAt, row := grow(&a.usedAt, g.n), grow(&a.rowAt, g.n), grow(&a.row, g.n)
	for pass := 0; pass < 8; pass++ {
		cand := a.cand[:0]
		for v := 0; v < g.n; v++ {
			gain[v] = g.cutGain(v, mask)
			if gain[v] > 0 {
				cand = append(cand, v)
			}
		}
		slices.SortFunc(cand, func(x, y int) int {
			switch {
			case gain[x] > gain[y]:
				return -1
			case gain[x] < gain[y]:
				return 1
			}
			return 0
		})
		a.cand = cand
		// A vertex stays on its side until it is used, so each side's
		// candidates, in gain order, are the partners the other side
		// may draw from.
		candA, candB := a.candA[:0], a.candB[:0]
		for _, v := range cand {
			if mask[v] {
				candA = append(candA, v)
			} else {
				candB = append(candB, v)
			}
		}
		a.candA, a.candB = candA, candB
		used := a.stamp()
		improved := false
		for _, x := range cand {
			if usedAt[x] == used {
				continue
			}
			other := candA
			if mask[x] {
				other = candB
			}
			// x's neighbour weights, dense and stamped, so each partner's
			// edge weight is one lookup.
			mark := a.stamp()
			for i := g.off[x]; i < g.off[x+1]; i++ {
				rowAt[g.adj[i]], row[g.adj[i]] = mark, g.adjW[i]
			}
			bestB, bestGain := -1, 0.0
			for _, b := range other {
				if usedAt[b] == used {
					continue
				}
				wab := 0.0
				if rowAt[b] == mark {
					wab = row[b]
				}
				if tg := gain[x] + gain[b] - 2*wab; tg > bestGain {
					bestB, bestGain = b, tg
				}
			}
			if bestB >= 0 {
				mask[x] = !mask[x]
				mask[bestB] = !mask[bestB]
				usedAt[x], usedAt[bestB] = used, used
				improved = true
			}
		}
		if !improved {
			return true
		}
	}
	return false
}
