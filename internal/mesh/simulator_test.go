package mesh

import (
	"fmt"
	"math/rand"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/layout"
)

// fingerprint renders every externally visible field of a Result so two
// runs can be compared byte-for-byte.
func fingerprint(r *Result) string {
	return fmt.Sprintf("lat=%d stalls=%d area=%d start=%v end=%v paths=%v holdend=%v",
		r.Latency, r.Stalls, r.Area, r.Start, r.End, r.Paths, r.HoldEnd)
}

// TestSimulatorReuseMatchesFresh is the arena-reuse property test: one
// Simulator run many times — across routing modes, interaction styles,
// and interleaved circuits/placements of different sizes (forcing arena
// regrowth and lattice/DAG cache evictions) — must produce results
// byte-identical to a fresh Simulator per call, and every recorded run
// must still satisfy the no-overlap braid invariant.
func TestSimulatorReuseMatchesFresh(t *testing.T) {
	small, err := bravyi.Build(bravyi.Params{K: 2, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2, Barriers: true, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	type workload struct {
		name string
		f    *bravyi.Factory
		pl   *layout.Placement
	}
	workloads := []workload{
		{"small-linear", small, layout.Linear(small)},
		{"big-linear", big, layout.Linear(big)},
		{"small-random", small, layout.Random(small.Circuit.NumQubits, rand.New(rand.NewSource(11)))},
	}
	reused := NewSimulator()
	for _, mode := range []RouteMode{RouteXY, RouteBox, RouteAdaptive} {
		for _, style := range Styles() {
			cfg := Config{Mode: mode, Style: style, Distance: 9, RecordPaths: true}
			for rep := 0; rep < 2; rep++ {
				for _, wl := range workloads {
					label := fmt.Sprintf("%s/%s/%s/rep%d", mode.name(), style, wl.name, rep)
					fresh, err := NewSimulator().Simulate(wl.f.Circuit, wl.pl, cfg)
					if err != nil {
						t.Fatalf("%s: fresh: %v", label, err)
					}
					pooled, err := reused.Simulate(wl.f.Circuit, wl.pl, cfg)
					if err != nil {
						t.Fatalf("%s: reused: %v", label, err)
					}
					if got, want := fingerprint(pooled), fingerprint(fresh); got != want {
						t.Fatalf("%s: reused simulator diverged from fresh\nreused: %s\nfresh:  %s", label, got, want)
					}
					if err := pooled.CheckNoOverlaps(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
		}
	}

	// One Simulator across lattices that grow, shrink and change defect
	// maps: a rebuilt lattice and router reuse arrays sized for a larger
	// grid and keep the stamps earlier grids left in them.
	type run struct {
		name    string
		c       *circuit.Circuit
		pl      *layout.Placement
		defects string
	}
	row := func(n int, defects string) run {
		c, pl := defectRowCircuit(n)
		return run{name: fmt.Sprintf("row%d[%s]", n, defects), c: c, pl: pl, defects: defects}
	}
	runs := []run{
		{name: "big-linear", c: big.Circuit, pl: layout.Linear(big)},
		row(3, "1,0"),
		row(6, "1,0;3,0"),
		row(6, ""),
		{name: "small-random", c: small.Circuit, pl: workloads[2].pl},
		row(4, "5,0"),
		row(6, "3,0"),
		{name: "big-linear", c: big.Circuit, pl: layout.Linear(big)},
		row(3, ""),
	}
	reused = NewSimulator()
	for _, mode := range []RouteMode{RouteXY, RouteBox, RouteAdaptive} {
		for i, r := range runs {
			label := fmt.Sprintf("%s/%d:%s", mode.name(), i, r.name)
			cfg := Config{Mode: mode, Defects: r.defects, RecordPaths: true}
			fresh, err := NewSimulator().Simulate(r.c, r.pl, cfg)
			if err != nil {
				t.Fatalf("%s: fresh: %v", label, err)
			}
			got, err := reused.Simulate(r.c, r.pl, cfg)
			if err != nil {
				t.Fatalf("%s: reused: %v", label, err)
			}
			if fingerprint(got) != fingerprint(fresh) {
				t.Fatalf("%s: reused simulator diverged from fresh\nreused: %s\nfresh:  %s", label, fingerprint(got), fingerprint(fresh))
			}
		}
	}
}

func (m RouteMode) name() string {
	switch m {
	case RouteXY:
		return "xy"
	case RouteBox:
		return "box"
	case RouteAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// TestPooledSimulateMatchesOwnedSimulator pins the compatibility wrapper:
// mesh.Simulate (pool-backed) must agree with a caller-owned Simulator.
func TestPooledSimulateMatchesOwnedSimulator(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := layout.Linear(f)
	cfg := Config{RecordPaths: true}
	owned := NewSimulator()
	for rep := 0; rep < 3; rep++ {
		a, err := Simulate(f.Circuit, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := owned.Simulate(f.Circuit, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(a) != fingerprint(b) {
			t.Fatalf("rep %d: pooled Simulate diverged from owned Simulator\npooled: %s\nowned:  %s",
				rep, fingerprint(a), fingerprint(b))
		}
	}
}
