package partition

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"magicstate/internal/bravyi"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
)

func twoCliques(bridge float64) *graph.Graph {
	g := graph.New(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, 1)
			g.AddEdge(i+4, j+4, 1)
		}
	}
	g.AddEdge(0, 4, bridge)
	return g
}

func countMask(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// bisectGraph runs the production bisection of g on a fresh arena.
func bisectGraph(g *graph.Graph, nA int, rng *rand.Rand) []bool {
	a := &arena{rng: rng}
	var c csr
	c.load(g)
	return a.bisect(&c, nA)
}

func TestBisectFindsNaturalCut(t *testing.T) {
	g := twoCliques(0.5)
	mask := bisectGraph(g, 4, rand.New(rand.NewSource(1)))
	if countMask(mask) != 4 {
		t.Fatalf("part size = %d, want 4", countMask(mask))
	}
	if cutWeight(g, mask) != 0.5 {
		t.Errorf("cut = %v, want 0.5 (the bridge)", cutWeight(g, mask))
	}
}

func TestBisectExactSizes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := graph.New(n)
		for e := 0; e < n*2; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*3)
		}
		nA := 1 + rng.Intn(n-1)
		mask := bisectGraph(g, nA, rng)
		return countMask(mask) == nA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBisectDegenerate(t *testing.T) {
	g := graph.New(5)
	if countMask(bisectGraph(g, 0, rand.New(rand.NewSource(1)))) != 0 {
		t.Error("nA=0 should return empty part")
	}
	if countMask(bisectGraph(g, 5, rand.New(rand.NewSource(1)))) != 5 {
		t.Error("nA=n should return full part")
	}
	// Edgeless graph still splits to exact sizes.
	if countMask(bisectGraph(g, 2, rand.New(rand.NewSource(1)))) != 2 {
		t.Error("edgeless bisect broken")
	}
}

func TestHeavyEdgeMatchingIsMatching(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.New(n)
		for e := 0; e < n; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64())
		}
		var c csr
		c.load(g)
		match := make([]int, n)
		(&arena{rng: rng}).heavyEdgeMatching(&c, match)
		for v, m := range match {
			if m == -1 {
				return false
			}
			if m != v && match[m] != v {
				return false // not symmetric
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestContractPreservesWeight(t *testing.T) {
	g := twoCliques(1)
	var fine, coarse csr
	fine.load(g)
	a := &arena{rng: rand.New(rand.NewSource(3))}
	match, mapDown := make([]int, g.N), make([]int, g.N)
	a.heavyEdgeMatching(&fine, match)
	a.contract(&fine, match, mapDown, &coarse)
	if coarse.n >= g.N {
		t.Fatalf("no contraction: %d -> %d", g.N, coarse.n)
	}
	// Total weight = internal (collapsed) + preserved.
	var collapsed, coarseTotal float64
	for _, e := range g.Edges {
		if mapDown[e.U] == mapDown[e.V] {
			collapsed += e.Weight
		}
	}
	for _, w := range coarse.ew {
		coarseTotal += w
	}
	if coarseTotal+collapsed != totalWeight(g) {
		t.Errorf("weight not conserved: coarse %v + collapsed %v != %v",
			coarseTotal, collapsed, totalWeight(g))
	}
	// The coarse graph is the one graph.AddEdge builds.
	ref, refMap := contractNaive(g, match)
	if fmt.Sprint(mapDown) != fmt.Sprint(refMap) {
		t.Fatalf("mapDown %v, reference %v", mapDown, refMap)
	}
	checkCSRMatches(t, &coarse, ref)
}

func TestEmbedProducesValidPlacement(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(f.Circuit)
	p := EmbedSquare(g, rand.New(rand.NewSource(5)))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedBeatsRandomOnEdgeLength(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(f.Circuit)
	gp := EmbedSquare(g, rand.New(rand.NewSource(5)))
	rnd := layout.Random(g.N, rand.New(rand.NewSource(5)))
	if layout.TotalManhattan(g, gp) >= layout.TotalManhattan(g, rnd) {
		t.Errorf("GP edge length %d should beat random %d",
			layout.TotalManhattan(g, gp), layout.TotalManhattan(g, rnd))
	}
}

func TestEmbedTwoLevelValid(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(f.Circuit)
	p := EmbedSquare(g, rand.New(rand.NewSource(7)))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// A square embedding of 368 qubits should have drastically shorter
	// edges than the 368-wide linear strip.
	lin := layout.Linear(f)
	if layout.TotalManhattan(g, p) >= layout.TotalManhattan(g, lin)/2 {
		t.Errorf("GP (%d) should at least halve linear edge length (%d)",
			layout.TotalManhattan(g, p), layout.TotalManhattan(g, lin))
	}
}

func TestEmbedRectangular(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(4, 5, 1)
	p := Embed(g, 6, 1, rand.New(rand.NewSource(9)))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p2 := Embed(g, 2, 3, rand.New(rand.NewSource(9)))
	if err := p2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKLRefineImprovesBadCut(t *testing.T) {
	g := twoCliques(0.5)
	// Deliberately bad balanced cut: {0,1,4,5} vs {2,3,6,7}.
	mask := []bool{true, true, false, false, true, true, false, false}
	before := cutWeight(g, mask)
	var c csr
	c.load(g)
	(&arena{}).klRefine(&c, mask)
	after := cutWeight(g, mask)
	if after > before {
		t.Errorf("refinement worsened cut: %v -> %v", before, after)
	}
	if after != 0.5 {
		t.Logf("note: refinement reached %v, optimum 0.5", after)
	}
	if countMask(mask) != 4 {
		t.Errorf("refinement changed balance: %d", countMask(mask))
	}
}

// cutWeight is the measuring stick for Bisect and klRefine: the total
// weight of edges crossing the mask.
func cutWeight(g *graph.Graph, mask []bool) float64 {
	var s float64
	for _, e := range g.Edges {
		if mask[e.U] != mask[e.V] {
			s += e.Weight
		}
	}
	return s
}

// totalWeight returns the sum of g's edge weights.
func totalWeight(g *graph.Graph) float64 {
	var s float64
	for _, e := range g.Edges {
		s += e.Weight
	}
	return s
}

// naiveSubgraph is the pre-CSR induced subgraph: a map from original to
// new ids and one AddEdge per induced edge of the whole graph.
func naiveSubgraph(g *graph.Graph, verts []int) *graph.Graph {
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	sub := graph.New(len(verts))
	for _, e := range g.Edges {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			sub.AddEdge(iu, iv, e.Weight)
		}
	}
	return sub
}

// embedNaive is the reference Embed: every recursion node induces its
// subgraph from the whole graph, through a map, and bisects it with
// bisectNaive.
func embedNaive(g *graph.Graph, w, h int, rng *rand.Rand) *layout.Placement {
	p := layout.NewPlacement(g.N, w, h)
	verts := make([]int, g.N)
	for i := range verts {
		verts[i] = i
	}
	embedRegionNaive(g, verts, region{0, 0, w, h}, p, rng)
	return p
}

func embedRegionNaive(g *graph.Graph, verts []int, r region, p *layout.Placement, rng *rand.Rand) {
	if len(verts) == 0 {
		return
	}
	if len(verts) == 1 || r.tiles() <= 1 {
		p.Set(verts[0], layout.Point{X: r.x, Y: r.y})
		return
	}
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
	partA := bisectNaive(naiveSubgraph(g, verts), nA, rng)
	var vertsA, vertsB []int
	for i, inA := range partA {
		if inA {
			vertsA = append(vertsA, verts[i])
		} else {
			vertsB = append(vertsB, verts[i])
		}
	}
	embedRegionNaive(g, vertsA, rA, p, rng)
	embedRegionNaive(g, vertsB, rB, p, rng)
}

// checkEmbedMatchesNaive embeds g on w x h with Embed and embedNaive
// from the same seed and fails unless every position and the next draw
// of each rng agree, so the two consumed identical random streams.
func checkEmbedMatchesNaive(t *testing.T, name string, g *graph.Graph, w, h int, seed int64) {
	t.Helper()
	rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, want := Embed(g, w, h, rng), embedNaive(g, w, h, ref)
	for v := range want.Pos {
		if got.Pos[v] != want.Pos[v] {
			t.Fatalf("%s on %dx%d seed %d: vertex %d at %v, naive %v", name, w, h, seed, v, got.Pos[v], want.Pos[v])
		}
	}
	if a, b := rng.Int63(), ref.Int63(); a != b {
		t.Fatalf("%s on %dx%d seed %d: rng streams diverged (%d vs %d)", name, w, h, seed, a, b)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s on %dx%d seed %d: %v", name, w, h, seed, err)
	}
}

// randomGraph draws n vertices and about density*n weighted edges, with
// a trailing block of isolated vertices when isolated > 0, so the graph
// is disconnected.
func randomGraph(rng *rand.Rand, n int, density float64, isolated int) *graph.Graph {
	g := graph.New(n + isolated)
	for e := 0; e < int(density*float64(n)); e++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(4)))
	}
	return g
}

func TestEmbedMatchesNaive(t *testing.T) {
	seeds := []int64{1, 2, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	factory := func(p bravyi.Params) *graph.Graph {
		f, err := bravyi.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		return graph.FromCircuit(f.Circuit)
	}
	for _, levels := range []int{1, 2} {
		for _, k := range []int{2, 4, 8, 10} {
			for _, reuse := range []bool{false, true} {
				for _, barriers := range []bool{false, true} {
					p := bravyi.Params{K: k, Levels: levels, Reuse: reuse, Barriers: barriers}
					g := factory(p)
					w, h := layout.GridFor(g.N, 1)
					for _, seed := range seeds {
						checkEmbedMatchesNaive(t, fmt.Sprintf("%+v", p), g, w, h, seed)
					}
				}
			}
		}
	}
	// Stitch module blocks: the level-1 module of every K a stitched
	// level-2 build uses, embedded from the build's Seed+1 stream.
	for _, k := range []int{1, 3, 5, 6, 7} {
		g := factory(bravyi.Params{K: k, Levels: 1})
		w, h := layout.GridFor(g.N, 1)
		for _, seed := range seeds {
			checkEmbedMatchesNaive(t, fmt.Sprintf("module K=%d", k), g, w, h, seed+1)
		}
	}
	// Random graphs, some disconnected, on rectangular grids with spare
	// tiles.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(150)
		g := randomGraph(rng, n, 0.5+3*rng.Float64(), rng.Intn(3)*rng.Intn(10))
		w := 1 + rng.Intn(g.N+2)
		h := (g.N+w-1)/w + rng.Intn(3)
		for _, seed := range seeds {
			checkEmbedMatchesNaive(t, fmt.Sprintf("random #%d (n=%d)", i, g.N), g, w, h, seed)
		}
	}
}

// TestEmbedConcurrentArenas embeds graphs of different sizes from
// goroutines that share the arena pool, so arenas move between calls and
// sizes, and checks every placement against a serial embedding.
func TestEmbedConcurrentArenas(t *testing.T) {
	var gs []*graph.Graph
	for _, k := range []int{2, 8} {
		for _, levels := range []int{1, 2} {
			f, err := bravyi.Build(bravyi.Params{K: k, Levels: levels, Barriers: true})
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, graph.FromCircuit(f.Circuit))
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4; i++ {
		gs = append(gs, randomGraph(rng, 1+rng.Intn(120), 2, 0))
	}
	want := make([]*layout.Placement, len(gs))
	for i, g := range gs {
		want[i] = EmbedSquare(g, rand.New(rand.NewSource(int64(i))))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range gs {
				j := (i + w) % len(gs)
				got := EmbedSquare(gs[j], rand.New(rand.NewSource(int64(j))))
				if fmt.Sprint(got.Pos) != fmt.Sprint(want[j].Pos) {
					t.Errorf("worker %d, graph %d: placement differs from the serial one", w, j)
				}
			}
		}(w)
	}
	wg.Wait()
}

func FuzzEmbedOracle(f *testing.F) {
	f.Add(int64(1), uint8(40), []byte{0, 1, 1, 2, 2, 3, 5, 9, 9, 30}, uint8(0))
	f.Add(int64(2), uint8(200), []byte{3, 4, 5, 6, 7, 8, 100, 150, 199, 0}, uint8(7))
	f.Add(int64(3), uint8(1), []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nv uint8, edges []byte, slack uint8) {
		n := 1 + int(nv)
		g := graph.New(n)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(int(edges[i])%n, int(edges[i+1])%n, float64(1+i%3))
		}
		// slack picks the grid's width and how many spare rows it has.
		w := 1 + int(slack>>2)%n
		h := (n+w-1)/w + int(slack&3)
		checkEmbedMatchesNaive(t, "fuzz", g, w, h, seed)
	})
}

func TestEmbedPanicsOnUndersizedGrid(t *testing.T) {
	g := graph.New(5)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Embed of 5 vertices on a 2x2 grid did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "5 vertices do not fit a 2x2 grid") {
			t.Errorf("panic message = %q", msg)
		}
	}()
	Embed(g, 2, 2, rand.New(rand.NewSource(1)))
}

func TestEmbedRegionPanicsOnOverfullTile(t *testing.T) {
	a := &arena{rng: rand.New(rand.NewSource(1))}
	root := a.nodeAt(0)
	root.g.load(graph.New(2))
	root.orig = []int{0, 1}
	p := layout.NewPlacement(2, 1, 1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invariant violated") {
			t.Fatalf("embedRegion of 2 vertices on one tile: recover() = %v", r)
		}
	}()
	a.embedRegion(0, region{0, 0, 1, 1}, p)
}

// The reference bisection below is the graph.Graph implementation the
// arena-backed one replaced, kept as the oracle: every mask it returns
// and every rng draw it makes must match the production code's.

// bisectNaive splits g's vertices into a part of exactly nA vertices and
// the rest.
func bisectNaive(g *graph.Graph, nA int, rng *rand.Rand) []bool {
	w := make([]int, g.N)
	for i := range w {
		w[i] = 1
	}
	mask := bisectWNaive(g, w, nA, rng)
	rebalanceWNaive(g, w, mask, nA)
	klRefineNaive(g, mask)
	rebalanceWNaive(g, w, mask, nA)
	return mask
}

func bisectWNaive(g *graph.Graph, vweight []int, targetA int, rng *rand.Rand) []bool {
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
	if g.N > coarsestSize {
		match := heavyEdgeMatchingNaive(g, rng)
		coarse, mapDown := contractNaive(g, match)
		if coarse.N < g.N {
			cw := make([]int, coarse.N)
			for v := 0; v < g.N; v++ {
				cw[mapDown[v]] += vweight[v]
			}
			coarseMask := bisectWNaive(coarse, cw, targetA, rng)
			mask := make([]bool, g.N)
			for v := 0; v < g.N; v++ {
				mask[v] = coarseMask[mapDown[v]]
			}
			rebalanceWNaive(g, vweight, mask, targetA)
			klRefineNaive(g, mask)
			rebalanceWNaive(g, vweight, mask, targetA)
			return mask
		}
	}
	mask := greedyGrowWNaive(g, vweight, targetA, rng)
	klRefineNaive(g, mask)
	rebalanceWNaive(g, vweight, mask, targetA)
	return mask
}

func heavyEdgeMatchingNaive(g *graph.Graph, rng *rand.Rand) []int {
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

func contractNaive(g *graph.Graph, match []int) (*graph.Graph, []int) {
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

func greedyGrowWNaive(g *graph.Graph, vweight []int, targetA int, rng *rand.Rand) []bool {
	mask := make([]bool, g.N)
	seed := 0
	bestDeg := -1.0
	for v := 0; v < g.N; v++ {
		d := 0.0
		g.Neighbors(v, func(_ int, w float64) { d += w })
		if d > bestDeg {
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

func rebalanceWNaive(g *graph.Graph, vweight []int, mask []bool, targetA int) {
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
			return
		}
		mask[best] = !mask[best]
		if fromA {
			weightA -= vweight[best]
		} else {
			weightA += vweight[best]
		}
	}
}

func klRefineNaive(g *graph.Graph, mask []bool) {
	for pass := 0; pass < 8; pass++ {
		improved := false
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
		var cand []int
		for v := 0; v < g.N; v++ {
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
			}
		}
		if !improved {
			break
		}
	}
}

// checkCSRMatches fails unless c has ref's vertices, edges (same order,
// same U<V endpoints, same weights) and neighbour lists.
func checkCSRMatches(t *testing.T, c *csr, ref *graph.Graph) {
	t.Helper()
	if c.n != ref.N || len(c.eu) != len(ref.Edges) {
		t.Fatalf("csr has %d vertices and %d edges, reference %d and %d", c.n, len(c.eu), ref.N, len(ref.Edges))
	}
	for ei, e := range ref.Edges {
		if c.eu[ei] != e.U || c.ev[ei] != e.V || c.ew[ei] != e.Weight {
			t.Fatalf("edge %d = {%d %d %v}, reference %+v", ei, c.eu[ei], c.ev[ei], c.ew[ei], e)
		}
	}
	for v := 0; v < ref.N; v++ {
		i := c.off[v]
		ref.Neighbors(v, func(u int, w float64) {
			if i >= c.off[v+1] || c.adj[i] != u || c.adjW[i] != w {
				t.Fatalf("vertex %d: neighbour list differs from reference at %d", v, i-c.off[v])
			}
			i++
		})
		if i != c.off[v+1] {
			t.Fatalf("vertex %d: %d neighbours, reference %d", v, c.off[v+1]-c.off[v], i-c.off[v])
		}
	}
}

// FuzzBisectOracle bisects weighted graphs whose repeated pairs reinforce
// edges, so contraction merges parallel coarse edges, at a random target
// size, and checks the mask and the next rng draw against bisectNaive.
// edges holds (u, v, weight) byte triples; extra adds that many random
// edges from the seed's stream, so large graphs coarsen over several
// levels. Weights are multiples of 0.3, whose sums depend on their order.
func FuzzBisectOracle(f *testing.F) {
	f.Add(int64(1), uint8(40), []byte{0, 1, 1, 1, 2, 2, 0, 1, 3, 5, 9, 4}, uint8(120), uint8(17))
	f.Add(int64(2), uint8(200), []byte{3, 4, 5, 6, 7, 8, 100, 150, 199}, uint8(255), uint8(99))
	f.Add(int64(3), uint8(25), []byte{}, uint8(0), uint8(13))
	f.Add(int64(4), uint8(90), []byte{1, 2, 3}, uint8(200), uint8(0))
	// A KL refinement here runs to its pass limit, so the multilevel
	// pass is not settled and the trailing round must run.
	f.Add(int64(-49), uint8(61), []byte("0"), uint8(231), uint8(92))
	f.Fuzz(func(t *testing.T, seed int64, nv uint8, edges []byte, extra uint8, nAByte uint8) {
		n := 1 + int(nv)
		g := graph.New(n)
		weight := func(b byte) float64 { return 0.3 * float64(1+b%7) }
		for i := 0; i+2 < len(edges); i += 3 {
			g.AddEdge(int(edges[i])%n, int(edges[i+1])%n, weight(edges[i+2]))
		}
		gen := rand.New(rand.NewSource(seed))
		for i := 0; i < 2*int(extra); i++ {
			g.AddEdge(gen.Intn(n), gen.Intn(n), weight(byte(gen.Intn(256))))
		}
		nA := int(nAByte) % (n + 1)
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got, want := bisectGraph(g, nA, rng), bisectNaive(g, nA, ref)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("n=%d nA=%d: vertex %d in A = %v, reference %v", n, nA, v, got[v], want[v])
			}
		}
		if a, b := rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("n=%d nA=%d: rng streams diverged (%d vs %d)", n, nA, a, b)
		}
	})
}
