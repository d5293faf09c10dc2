// Package presets names curated sweep suites — fixed, versioned lists
// of batch points — so the same scenario grid can be launched by name
// from every surface: `paperbench preset <name>` on the CLI and
// POST /v1/batch {"preset": "<name>"} on msfud. A preset expands to
// plain magicstate.BatchPoints, so everything downstream (memo cache,
// durable store) treats preset points exactly like hand-written ones;
// two surfaces running the same preset produce byte-identical result
// sets because they lower to identical configs.
//
// Presets are part of the repo's compatibility surface: renaming one,
// or changing its point list, changes what a pinned name reproduces.
// Extend by adding new names instead of mutating existing ones.
package presets

import (
	"fmt"
	"sort"

	"magicstate"
)

// Preset is one named suite.
type Preset struct {
	// Name is the stable identifier both CLIs accept.
	Name string
	// Description says what the suite demonstrates, one line.
	Description string
	// Points is the expanded grid, in the order results are reported.
	Points []magicstate.BatchPoint
}

// qasmBell is the embedded OpenQASM source the qasm preset points run:
// a GHZ-style entangler with a magic-state-consuming T layer, small
// enough to simulate in milliseconds but touching every gate family the
// frontend supports.
const qasmBell = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
cx q[2], q[3];
t q;
barrier q;
tdg q[0];
s q[1];
sdg q[2];
h q[3];
cx q[3], q[0];
measure q -> c;
`

// registry holds every preset by name. Point lists are constructed once
// at init and treated as immutable; Get hands out the shared slice.
var registry = map[string]Preset{}

func register(p Preset) {
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("presets: duplicate preset %q", p.Name))
	}
	registry[p.Name] = p
}

func init() {
	// strategies-small: the paper's Table I strategy cross-section at the
	// smallest factory, the cheapest end-to-end sanity grid.
	strategies := Preset{
		Name:        "strategies-small",
		Description: "capacity-4 single-level factory under all four flat mapping strategies",
	}
	for _, st := range []magicstate.Strategy{
		magicstate.LinearMapping, magicstate.RandomMapping,
		magicstate.GraphPartitioning, magicstate.ForceDirected,
	} {
		strategies.Points = append(strategies.Points, magicstate.BatchPoint{
			Spec: magicstate.FactorySpec{Capacity: 4, Levels: 1},
			Opts: magicstate.Options{Seed: 1}.WithStrategy(st),
		})
	}
	register(strategies)

	// defect-ladder: one factory on meshes of increasing fabrication
	// damage. Latency should be monotone-ish in defect count; area grows
	// only if relocation has to add rows.
	defects := Preset{
		Name:        "defect-ladder",
		Description: "capacity-4 factory on pristine through increasingly defective meshes",
	}
	for _, dm := range []string{"", "1,0", "1,0;3,0", "0,0;1,0;3,0;5,0"} {
		defects.Points = append(defects.Points, magicstate.BatchPoint{
			Spec: magicstate.FactorySpec{Capacity: 4, Levels: 1},
			Opts: magicstate.Options{Seed: 1, Defects: dm}.WithStrategy(magicstate.LinearMapping),
		})
	}
	register(defects)

	// workload-mix: the frontend aperture in one suite — an imported QASM
	// program, then seeded random circuits of growing T-density, each
	// under the linear and force-directed mappers.
	mix := Preset{
		Name:        "workload-mix",
		Description: "qasm import plus seeded random circuits across two mappers",
	}
	sources := []struct{ kind, src string }{
		{"qasm", qasmBell},
		{"random", "q=6;layers=8;cx=0.5;t=0.2"},
		{"random", "q=9;layers=10;cx=0.4;t=0.4"},
	}
	for _, s := range sources {
		for _, st := range []magicstate.Strategy{magicstate.LinearMapping, magicstate.ForceDirected} {
			mix.Points = append(mix.Points, magicstate.BatchPoint{
				Opts: magicstate.Options{
					Seed: 1, Workload: s.kind, WorkloadSource: s.src,
				}.WithStrategy(st),
			})
		}
	}
	register(mix)

	// scenario-small: the cross-frontier smoke suite the CI e2e step
	// runs — one point from each aperture (factory, defects, qasm,
	// random workload), small enough to finish in seconds.
	register(Preset{
		Name:        "scenario-small",
		Description: "one point per frontend: factory, defective mesh, qasm, random workload",
		Points: []magicstate.BatchPoint{
			{
				Spec: magicstate.FactorySpec{Capacity: 4, Levels: 1},
				Opts: magicstate.Options{Seed: 1}.WithStrategy(magicstate.LinearMapping),
			},
			{
				Spec: magicstate.FactorySpec{Capacity: 4, Levels: 1},
				Opts: magicstate.Options{Seed: 1, Defects: "1,0;3,0"}.WithStrategy(magicstate.LinearMapping),
			},
			{
				Opts: magicstate.Options{
					Seed: 1, Workload: "qasm", WorkloadSource: qasmBell,
				}.WithStrategy(magicstate.LinearMapping),
			},
			{
				Opts: magicstate.Options{
					Seed: 1, Workload: "random", WorkloadSource: "q=6;layers=6;cx=0.5;t=0.25",
				}.WithStrategy(magicstate.LinearMapping),
			},
		},
	})
}

// Names lists every preset name, sorted, for error messages and
// discovery endpoints.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get resolves a preset by name. The returned point slice is shared:
// callers must not mutate it.
func Get(name string) (Preset, bool) {
	p, ok := registry[name]
	return p, ok
}
