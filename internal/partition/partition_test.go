package partition

import (
	"math/rand"
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

func TestBisectFindsNaturalCut(t *testing.T) {
	g := twoCliques(0.5)
	mask := Bisect(g, 4, rand.New(rand.NewSource(1)))
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
		mask := Bisect(g, nA, rng)
		return countMask(mask) == nA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBisectDegenerate(t *testing.T) {
	g := graph.New(5)
	if countMask(Bisect(g, 0, rand.New(rand.NewSource(1)))) != 0 {
		t.Error("nA=0 should return empty part")
	}
	if countMask(Bisect(g, 5, rand.New(rand.NewSource(1)))) != 5 {
		t.Error("nA=n should return full part")
	}
	// Edgeless graph still splits to exact sizes.
	if countMask(Bisect(g, 2, rand.New(rand.NewSource(1)))) != 2 {
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
		match := heavyEdgeMatching(g, rng)
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
	rng := rand.New(rand.NewSource(3))
	match := heavyEdgeMatching(g, rng)
	coarse, mapDown := contract(g, match)
	if coarse.N >= g.N {
		t.Fatalf("no contraction: %d -> %d", g.N, coarse.N)
	}
	// Total weight = internal (collapsed) + preserved.
	var collapsed float64
	for _, e := range g.Edges {
		if mapDown[e.U] == mapDown[e.V] {
			collapsed += e.Weight
		}
	}
	if totalWeight(coarse)+collapsed != totalWeight(g) {
		t.Errorf("weight not conserved: coarse %v + collapsed %v != %v",
			totalWeight(coarse), collapsed, totalWeight(g))
	}
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
	klRefine(g, mask, nil)
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
