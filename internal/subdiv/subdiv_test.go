package subdiv

import (
	"testing"
	"testing/quick"

	"magicstate/internal/circuit"
	"magicstate/internal/circuits"
	"magicstate/internal/mesh"
)

func hierarchical(t *testing.T, seed int64) *circuit.Circuit {
	t.Helper()
	c, err := circuits.HierarchicalRandom(circuits.HierarchicalOptions{
		Blocks: 3, QubitsPerBlock: 6, Phases: 3,
		IntraCNOTs: 10, BridgeCNOTs: 3, Barriers: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStitchRejectsBadInput(t *testing.T) {
	if _, err := Stitch(circuit.New(0), Options{}); err == nil {
		t.Error("empty circuit accepted")
	}
	c := circuit.New(2)
	c.CNOT(0, 1)
	c.Move(0, 1)
	if _, err := Stitch(c, Options{}); err == nil {
		t.Error("input with Move accepted")
	}
}

func TestStitchPreservesGateSequence(t *testing.T) {
	c := hierarchical(t, 3)
	res, err := Stitch(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every input gate appears in order; inserted gates are Moves only.
	var kinds []circuit.Kind
	for i := range res.Circuit.Gates {
		if res.Circuit.Gates[i].Kind != circuit.KindMove {
			kinds = append(kinds, res.Circuit.Gates[i].Kind)
		}
	}
	if len(kinds) != len(c.Gates) {
		t.Fatalf("stitched circuit has %d non-move gates, input has %d", len(kinds), len(c.Gates))
	}
	for i := range c.Gates {
		if kinds[i] != c.Gates[i].Kind {
			t.Fatalf("gate %d kind %v, want %v", i, kinds[i], c.Gates[i].Kind)
		}
	}
	if got, want := len(res.Circuit.Gates)-len(c.Gates), res.Moves; got != want {
		t.Errorf("inserted %d gates, reported Moves = %d", got, want)
	}
}

func TestStitchCutsAtBarriers(t *testing.T) {
	c := hierarchical(t, 5) // 3 phases, 2 barriers
	res, err := Stitch(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Errorf("windows = %d, want 3 (cut at each barrier)", len(res.Windows))
	}
	// Windows tile the gate sequence.
	at := 0
	for _, w := range res.Windows {
		if w.Start != at {
			t.Fatalf("window starts at %d, want %d", w.Start, at)
		}
		if w.End <= w.Start {
			t.Fatalf("empty window %+v", w)
		}
		at = w.End
	}
	if at != len(c.Gates) {
		t.Errorf("windows end at %d, circuit has %d gates", at, len(c.Gates))
	}
}

func TestStitchWindowCountWithoutBarriers(t *testing.T) {
	c, err := circuits.RandomCliffordT(10, 60, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ws := cutWindows(c, 5); len(ws) < 4 || len(ws) > 6 {
		t.Errorf("windows = %d, want about 5", len(ws))
	}
}

func TestStitchMoveBudgetRespected(t *testing.T) {
	c := hierarchical(t, 7)
	opt := Options{Seed: 1, MoveBudget: 3}
	res, err := Stitch(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := len(res.Windows) - 1
	if res.Moves > boundaries*opt.MoveBudget {
		t.Errorf("moves = %d exceed budget %d over %d boundaries",
			res.Moves, opt.MoveBudget, boundaries)
	}
}

func TestStitchedCircuitSimulates(t *testing.T) {
	c := hierarchical(t, 9)
	res, err := Stitch(c, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mesh.Simulate(res.Circuit, res.Placement, mesh.Config{RecordPaths: true})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if sim.Latency <= 0 {
		t.Error("zero latency")
	}
	if err := sim.CheckNoOverlaps(); err != nil {
		t.Errorf("overlap invariant: %v", err)
	}
}

func TestStitchBeatsGlobalOnPhaseStructuredCircuit(t *testing.T) {
	// Aggregate over a few seeds: the stitched mapping should win (or
	// tie within noise) on latency against the single global embedding
	// on circuits whose interaction pattern shifts between phases.
	var stitched, global int
	for seed := int64(1); seed <= 3; seed++ {
		c := hierarchical(t, seed)
		res, err := Stitch(c, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		simS, err := mesh.Simulate(res.Circuit, res.Placement, mesh.Config{})
		if err != nil {
			t.Fatal(err)
		}
		pg := GlobalEmbed(c, seed)
		simG, err := mesh.Simulate(c, pg, mesh.Config{})
		if err != nil {
			t.Fatal(err)
		}
		stitched += simS.Latency
		global += simG.Latency
	}
	// Moves cost cycles, so demand no worse than a modest overhead, not
	// strict dominance (three seeds is a smoke check, not a benchmark).
	if float64(stitched) > 1.25*float64(global) {
		t.Errorf("stitched latency %d much worse than global %d", stitched, global)
	}
	t.Logf("stitched=%d global=%d", stitched, global)
}

func TestGlobalEmbedValid(t *testing.T) {
	c, err := circuits.QFTLike(8)
	if err != nil {
		t.Fatal(err)
	}
	pl := GlobalEmbed(c, 1)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pl.Pos) != c.NumQubits {
		t.Errorf("placement covers %d qubits, want %d", len(pl.Pos), c.NumQubits)
	}
}

// Property: stitching random circuits always yields a valid circuit and
// placement, windows tile the input (the stitcher's own and any count
// cutWindows is asked for), and non-move gate counts match.
func TestStitchPropertyValid(t *testing.T) {
	f := func(seed int64, szRaw, winRaw uint8) bool {
		n := int(szRaw%8) + 4
		wins := int(winRaw%4) + 2
		c, err := circuits.RandomCliffordT(n, 8*n, 0.2, seed)
		if err != nil {
			return false
		}
		res, err := Stitch(c, Options{Seed: seed})
		if err != nil {
			return false
		}
		if res.Circuit.Validate() != nil || res.Placement.Validate() != nil {
			return false
		}
		nonMove := 0
		for i := range res.Circuit.Gates {
			if res.Circuit.Gates[i].Kind != circuit.KindMove {
				nonMove++
			}
		}
		if nonMove != len(c.Gates) {
			return false
		}
		return tiles(res.Windows, len(c.Gates)) && tiles(cutWindows(c, wins), len(c.Gates))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// tiles reports whether ws cover gates [0, n) in order, each nonempty.
func tiles(ws []Window, n int) bool {
	at := 0
	for _, w := range ws {
		if w.Start != at || w.End <= w.Start {
			return false
		}
		at = w.End
	}
	return at == n
}
