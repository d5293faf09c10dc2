package force

import (
	"math/rand"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
)

func buildFactory(t *testing.T, k, l int) (*bravyi.Factory, *graph.Graph, *layout.Placement) {
	t.Helper()
	f, err := bravyi.Build(bravyi.Params{K: k, Levels: l, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(f.Circuit)
	return f, g, layout.Linear(f)
}

func TestAnnealKeepsPlacementValid(t *testing.T) {
	f, g, init := buildFactory(t, 4, 1)
	p := Anneal(g, f.Circuit, init, Options{Seed: 1})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Pos) != g.N {
		t.Fatalf("lost qubits: %d != %d", len(p.Pos), g.N)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	f, g, init := buildFactory(t, 2, 1)
	p1 := Anneal(g, f.Circuit, init, Options{Seed: 42})
	p2 := Anneal(g, f.Circuit, init, Options{Seed: 42})
	for q := range p1.Pos {
		if p1.Pos[q] != p2.Pos[q] {
			t.Fatal("same seed must reproduce the same mapping")
		}
	}
}

func TestAnnealDoesNotMutateInput(t *testing.T) {
	f, g, init := buildFactory(t, 2, 1)
	before := append([]layout.Point(nil), init.Pos...)
	Anneal(g, f.Circuit, init, Options{Seed: 3})
	for q := range before {
		if init.Pos[q] != before[q] {
			t.Fatal("Anneal must not mutate the initial placement")
		}
	}
}

func TestAnnealImprovesRandomStart(t *testing.T) {
	// From a random start the annealer must shorten edges substantially.
	f, g, _ := buildFactory(t, 8, 1)
	rng := layout.Random(g.N, randSource(7))
	before := layout.TotalManhattan(g, rng)
	p := Anneal(g, f.Circuit, rng, Options{Seed: 7})
	after := layout.TotalManhattan(g, p)
	if after >= before {
		t.Errorf("edge length did not improve: %d -> %d", before, after)
	}
}

func TestAnnealCompetitiveWithLinearOnSimulator(t *testing.T) {
	f, g, lin := buildFactory(t, 8, 1)
	fd := Anneal(g, f.Circuit, lin, Options{Seed: 11})
	rl, err := mesh.Simulate(f.Circuit, lin, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := mesh.Simulate(f.Circuit, fd, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper finds FD slightly better than or comparable to linear on
	// single-level factories; allow a modest tolerance.
	if float64(rf.Latency) > 1.35*float64(rl.Latency) {
		t.Errorf("FD latency %d too far above linear %d", rf.Latency, rl.Latency)
	}
}

func TestAnnealAblationFlagsRun(t *testing.T) {
	f, g, init := buildFactory(t, 2, 1)
	p := Anneal(g, f.Circuit, init, Options{Seed: 5, DisableDipole: true, DisableCommunity: true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealTwoLevelValid(t *testing.T) {
	f, g, init := buildFactory(t, 2, 2)
	p := Anneal(g, f.Circuit, init, Options{Seed: 9, Iterations: 10})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func samePlacement(t *testing.T, want, got *layout.Placement, label string) {
	t.Helper()
	if len(want.Pos) != len(got.Pos) {
		t.Fatalf("%s: qubit count %d != %d", label, len(got.Pos), len(want.Pos))
	}
	for q := range want.Pos {
		if want.Pos[q] != got.Pos[q] {
			t.Fatalf("%s: qubit %d placed at %v, want %v", label, q, got.Pos[q], want.Pos[q])
		}
	}
}

func TestAnnealRestartsDeterministicAcrossWorkerWidths(t *testing.T) {
	// Restarts run on independent SplitMix64 child streams, so the
	// winning placement must be byte-identical no matter how many
	// goroutines executed them (the -race run of this test is also the
	// data-race check for the restart pool).
	f, g, init := buildFactory(t, 4, 1)
	opt := Options{Seed: 21, Restarts: 4, Iterations: 40}
	opt.RestartWorkers = 1
	ref := Anneal(g, f.Circuit, init, opt)
	for _, w := range []int{2, 8} {
		opt.RestartWorkers = w
		samePlacement(t, ref, Anneal(g, f.Circuit, init, opt),
			"RestartWorkers="+string(rune('0'+w)))
	}
}

func TestAnnealRestartZeroMatchesSingleRun(t *testing.T) {
	// Restart 0 replays the historical single-run stream verbatim, so a
	// multi-restart anneal can never do worse than the plain one: if the
	// extra streams don't win, the result is exactly the single-run
	// placement.
	f, g, init := buildFactory(t, 2, 1)
	single := Anneal(g, f.Circuit, init, Options{Seed: 13, Iterations: 30})
	multi := Anneal(g, f.Circuit, init, Options{Seed: 13, Iterations: 30, Restarts: 3})
	if placementCost(g, multi) > placementCost(g, single) {
		t.Fatalf("restarts made the placement worse: %v > %v",
			placementCost(g, multi), placementCost(g, single))
	}
}

func TestAnnealerReuseMatchesFresh(t *testing.T) {
	// A reused Annealer carries dirty scratch arenas from prior runs of a
	// different problem size; results must still match a fresh anneal.
	f, g, init := buildFactory(t, 4, 1)
	f2, g2, init2 := buildFactory(t, 2, 1)
	an := NewAnnealer()
	an.Anneal(g2, f2.Circuit, init2, Options{Seed: 2})
	reused := an.Anneal(g, f.Circuit, init, Options{Seed: 21, Restarts: 2})
	fresh := Anneal(g, f.Circuit, init, Options{Seed: 21, Restarts: 2})
	samePlacement(t, fresh, reused, "reused annealer")
}
