package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
)

func TestAddEdgeMergesWeights(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2) // same undirected edge
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 1, 5) // self loop ignored
	if len(g.Edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(g.Edges))
	}
	if g.Edges[0].Weight != 3 {
		t.Errorf("merged weight = %v, want 3", g.Edges[0].Weight)
	}
	if len(g.Incident(1)) != 2 || len(g.Incident(0)) != 1 {
		t.Errorf("degrees wrong: %d %d", len(g.Incident(1)), len(g.Incident(0)))
	}
	if g.WeightedDegree(1) != 4 {
		t.Errorf("weighted degree = %v, want 4", g.WeightedDegree(1))
	}
}

func TestNeighbors(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 2)
	got := map[int]float64{}
	g.Neighbors(0, func(v int, w float64) { got[v] = w })
	if len(got) != 2 || got[1] != 1 || got[2] != 2 {
		t.Errorf("neighbors of 0 = %v", got)
	}
}

func TestFromCircuit(t *testing.T) {
	c := circuit.New(5)
	c.H(0)                           // no edge
	c.CNOT(0, 1)                     // 0-1
	c.CNOT(0, 1)                     // reinforces 0-1
	c.CXX(2, []circuit.Qubit{3, 4})  // 2-3, 2-4
	c.InjectT(3, 0)                  // 0-3
	c.Barrier([]circuit.Qubit{0, 1}) // no edge
	c.Move(4, 1)                     // 4-1
	g := FromCircuit(c)
	if len(g.Edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(g.Edges))
	}
	var w01 float64
	g.Neighbors(0, func(v int, w float64) {
		if v == 1 {
			w01 = w
		}
	})
	if w01 != 2 {
		t.Errorf("0-1 weight = %v, want 2", w01)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	comp, n := g.Components()
	if n != 3 { // {0,1,2}, {3,4}, {5}
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("3,4 mis-assigned")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("isolated vertex should be its own component")
	}
}

func TestSingleLevelFactoryGraphIsOneComponent(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(f.Circuit)
	if g.N != 53 {
		t.Fatalf("vertices = %d, want 53", g.N)
	}
	_, n := g.Components()
	if n != 1 {
		t.Errorf("single module should be fully connected, got %d components", n)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(3, 4, 1)
	sub, orig := g.Subgraph([]int{1, 2, 3})
	if sub.N != 3 || len(sub.Edges) != 1 {
		t.Fatalf("subgraph %d vertices %d edges, want 3/1", sub.N, len(sub.Edges))
	}
	if orig[0] != 1 || orig[2] != 3 {
		t.Errorf("orig mapping = %v", orig)
	}
	if sub.Edges[0].Weight != 2 {
		t.Errorf("subgraph edge weight = %v, want 2", sub.Edges[0].Weight)
	}
}

func TestPolesAreAssignedAndBinary(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	poles := Poles(f.Circuit)
	if len(poles) != f.Circuit.NumQubits {
		t.Fatalf("poles length %d", len(poles))
	}
	plus, minus := 0, 0
	for _, p := range poles {
		switch p {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatalf("pole %d not in {+1,-1}", p)
		}
	}
	if plus == 0 || minus == 0 {
		t.Errorf("degenerate pole assignment: +%d -%d", plus, minus)
	}
}

func TestPolesAlternateAlongChain(t *testing.T) {
	// A pure CNOT chain executed in one level per gate pair should
	// 2-color alternately.
	c := circuit.New(4)
	c.CNOT(0, 1)
	c.CNOT(2, 3)
	poles := Poles(c)
	if poles[0] == poles[1] || poles[2] == poles[3] {
		t.Errorf("gate endpoints should get opposite poles: %v", poles)
	}
}

func TestCommunitiesOnTwoCliques(t *testing.T) {
	g := New(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, 1)
			g.AddEdge(i+4, j+4, 1)
		}
	}
	g.AddEdge(0, 4, 0.1) // weak bridge
	label, n := Communities(g, rand.New(rand.NewSource(1)))
	if n != 2 {
		t.Fatalf("communities = %d, want 2 (%v)", n, label)
	}
	for i := 1; i < 4; i++ {
		if label[i] != label[0] {
			t.Errorf("clique 1 split: %v", label)
		}
	}
	for i := 5; i < 8; i++ {
		if label[i] != label[4] {
			t.Errorf("clique 2 split: %v", label)
		}
	}
	if modularity(g, label) < 0.3 {
		t.Errorf("modularity %v too low for clean cliques", modularity(g, label))
	}
}

func TestCommunitiesDeterministicPerSeed(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(f.Circuit)
	l1, n1 := Communities(g, rand.New(rand.NewSource(9)))
	l2, n2 := Communities(g, rand.New(rand.NewSource(9)))
	if n1 != n2 {
		t.Fatalf("counts differ: %d vs %d", n1, n2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("same seed must reproduce identical communities")
		}
	}
}

func TestTwoLevelFactoryHasModuleCommunities(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := FromCircuit(f.Circuit)
	_, n := Communities(g, rand.New(rand.NewSource(3)))
	// 16 modules with weak inter-round coupling should yield several
	// communities, roughly tracking modules (Fig. 4c).
	if n < 4 {
		t.Errorf("expected >= 4 communities in a 16-module factory, got %d", n)
	}
}

func TestCommunityLabelsAreDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := New(n)
		for e := 0; e < n*2; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64())
		}
		label, count := Communities(g, rng)
		seen := make([]bool, count)
		for _, l := range label {
			if l < 0 || l >= count {
				return false
			}
			seen[l] = true
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// modularity is the measuring stick for Communities: the Newman
// modularity of a community assignment, a quality score in [-0.5, 1].
func modularity(g *Graph, label []int) float64 {
	var m float64
	for _, e := range g.Edges {
		m += e.Weight
	}
	if m == 0 {
		return 0
	}
	degSum := make(map[int]float64)
	inSum := make(map[int]float64)
	for v := 0; v < g.N; v++ {
		degSum[label[v]] += g.WeightedDegree(v)
	}
	for _, e := range g.Edges {
		if label[e.U] == label[e.V] {
			inSum[label[e.U]] += e.Weight
		}
	}
	labels := make([]int, 0, len(degSum))
	for c := range degSum {
		labels = append(labels, c)
	}
	sort.Ints(labels) // fixed summation order: the score is bit-reproducible
	var q float64
	for _, c := range labels {
		d := degSum[c] / (2 * m)
		q += inSum[c]/m - d*d
	}
	return q
}
