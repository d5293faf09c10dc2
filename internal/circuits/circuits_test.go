package circuits

import (
	"testing"
	"testing/quick"

	"magicstate/internal/circuit"
	"magicstate/internal/graph"
)

func TestGHZStructure(t *testing.T) {
	c, err := GHZ(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.CountKind(circuit.KindCNOT); got != 4 {
		t.Errorf("cnot count = %d, want 4", got)
	}
	if got := c.CountKind(circuit.KindH); got != 1 {
		t.Errorf("h count = %d, want 1", got)
	}
	// Interaction graph must be a path: n-1 edges, max degree 2.
	g := graph.FromCircuit(c)
	if len(g.Edges) != 4 {
		t.Errorf("edges = %d, want 4", len(g.Edges))
	}
	for v := 0; v < g.N; v++ {
		if d := len(g.Incident(v)); d > 2 {
			t.Errorf("vertex %d degree %d on a path", v, d)
		}
	}
}

func TestGHZRejectsTiny(t *testing.T) {
	if _, err := GHZ(1); err == nil {
		t.Error("GHZ(1) accepted")
	}
}

func TestCuccaroAdderStructure(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		c, err := CuccaroAdder(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := c.NumQubits, 1+2*n; got != want {
			t.Errorf("n=%d: qubits = %d, want %d", n, got, want)
		}
		// 2n MAJ/UMA pairs, each with one Toffoli of 7 T gates.
		if got, want := c.CountKind(circuit.KindT), 7*2*n; got != want {
			t.Errorf("n=%d: T count = %d, want %d", n, got, want)
		}
		// Locality: the interaction graph of a ripple-carry adder only
		// couples qubits within a window of one bit position (id
		// distance <= 3 in the interleaved layout).
		g := graph.FromCircuit(c)
		for _, e := range g.Edges {
			if e.V-e.U > 3 {
				t.Errorf("n=%d: non-local edge (%d,%d)", n, e.U, e.V)
			}
		}
	}
}

func TestCuccaroAdderRejectsZeroBits(t *testing.T) {
	if _, err := CuccaroAdder(0); err == nil {
		t.Error("0-bit adder accepted")
	}
}

func TestQFTLikeComplete(t *testing.T) {
	c, err := QFTLike(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(c)
	want := 6 * 5 / 2
	if len(g.Edges) != want {
		t.Errorf("edges = %d, want complete graph %d", len(g.Edges), want)
	}
	if got, want := c.CountKind(circuit.KindT), 15; got != want {
		t.Errorf("T count = %d, want one per pair %d", got, want)
	}
}

func TestRandomCliffordTDeterministic(t *testing.T) {
	a, err := RandomCliffordT(8, 40, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomCliffordT(8, 40, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different circuits")
	}
	c, err := RandomCliffordT(8, 40, 0.3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different seeds produced identical circuits")
	}
}

func TestRandomCliffordTRejectsBadArgs(t *testing.T) {
	if _, err := RandomCliffordT(1, 5, 0, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RandomCliffordT(4, -1, 0, 1); err == nil {
		t.Error("negative cnots accepted")
	}
}

func TestHierarchicalRandomPhases(t *testing.T) {
	opt := HierarchicalOptions{
		Blocks: 3, QubitsPerBlock: 4, Phases: 3,
		IntraCNOTs: 6, BridgeCNOTs: 2, Barriers: true, Seed: 2,
	}
	c, err := HierarchicalRandom(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.NumQubits, 12; got != want {
		t.Errorf("qubits = %d, want %d", got, want)
	}
	if got, want := c.CountKind(circuit.KindBarrier), 2; got != want {
		t.Errorf("barriers = %d, want %d (between 3 phases)", got, want)
	}
}

func TestHierarchicalRandomValidation(t *testing.T) {
	if _, err := HierarchicalRandom(HierarchicalOptions{Blocks: 1, QubitsPerBlock: 4, Phases: 1}); err == nil {
		t.Error("1 block accepted")
	}
	if _, err := HierarchicalRandom(HierarchicalOptions{Blocks: 2, QubitsPerBlock: 1, Phases: 1}); err == nil {
		t.Error("1 qubit per block accepted")
	}
	if _, err := HierarchicalRandom(HierarchicalOptions{Blocks: 2, QubitsPerBlock: 4, Phases: 0}); err == nil {
		t.Error("0 phases accepted")
	}
	if _, err := HierarchicalRandom(HierarchicalOptions{Blocks: 2, QubitsPerBlock: 4, Phases: 1, BridgeCNOTs: -1}); err == nil {
		t.Error("negative bridges accepted")
	}
}

// Property: every generator emits circuits that validate and whose qubit
// ids stay dense, for a range of random sizes.
func TestGeneratorsPropertyValid(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%8) + 2
		gens := []func() (*circuit.Circuit, error){
			func() (*circuit.Circuit, error) { return GHZ(n) },
			func() (*circuit.Circuit, error) { return CuccaroAdder(n) },
			func() (*circuit.Circuit, error) { return QFTLike(n) },
			func() (*circuit.Circuit, error) { return RandomCliffordT(n, 5*n, 0.25, seed) },
			func() (*circuit.Circuit, error) {
				return HierarchicalRandom(HierarchicalOptions{
					Blocks: 2, QubitsPerBlock: n, Phases: 2, IntraCNOTs: n,
					BridgeCNOTs: 1, Barriers: true, Seed: seed,
				})
			},
		}
		for _, gen := range gens {
			c, err := gen()
			if err != nil {
				return false
			}
			if c.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
