// Package core wires the whole toolchain together following the flow
// chart of Fig. 3: generate the block-code factory, map it with one of
// the paper's strategies (random, linear, force-directed annealing,
// recursive graph partitioning, hierarchical stitching), execute the
// mapped circuit on the cycle-accurate braid mesh, and report latency,
// area, space-time volume and the theoretical lower bound.
package core

import (
	"context"
	"fmt"

	"magicstate/internal/bravyi"
	"magicstate/internal/force"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
)

// Strategy selects a mapping procedure.
type Strategy int

const (
	// StrategyRandom places qubits uniformly at random (Table I "Random").
	StrategyRandom Strategy = iota
	// StrategyLinear is the hand-optimized linear mapping of Fowler et
	// al. [19] ("Line").
	StrategyLinear
	// StrategyForceDirected anneals the linear mapping with the dipole /
	// repulsion / attraction forces of §VI.B.1 ("FD").
	StrategyForceDirected
	// StrategyGraphPartition embeds the global interaction graph by
	// recursive bisection (§VI.B.2, "GP").
	StrategyGraphPartition
	// StrategyStitch is hierarchical stitching (§VII, "HS").
	StrategyStitch
)

var strategyNames = map[Strategy]string{
	StrategyRandom:         "Random",
	StrategyLinear:         "Line",
	StrategyForceDirected:  "FD",
	StrategyGraphPartition: "GP",
	StrategyStitch:         "HS",
}

// String returns the Table I row label for the strategy.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Config describes one factory optimization run.
type Config struct {
	// K and Levels define the Bravyi-Haah block code; see bravyi.Params.
	K, Levels int
	// Reuse enables sharing-after-measurement qubit reuse (§V.B).
	Reuse bool
	// Barriers inserts the inter-round fences of §V.A (default on; set
	// NoBarriers to drop them for the scheduling ablation).
	NoBarriers bool
	// Strategy picks the mapper.
	Strategy Strategy
	// Seed drives every randomized component.
	Seed int64
	// MeshMode overrides the simulator's braid routing mode.
	MeshMode mesh.RouteMode
	// Style selects the surface-code interaction discipline (§IX); the
	// zero value is the paper's braiding model.
	Style mesh.InteractionStyle
	// Distance feeds the distance-sensitive styles (zero means 7,
	// negative is an error).
	Distance int
	// RecordPaths keeps braid paths in the simulation result so callers
	// can audit overlaps or draw congestion maps.
	RecordPaths bool
	// FD carries force-directed overrides (Iterations etc.). Its Seed
	// is never read: the annealer is seeded from Seed.
	FD force.Options
	// Workload selects an alternative circuit frontend. Empty (the
	// default) builds the paper's Bravyi-Haah factory from K/Levels;
	// "qasm" and "scaffold" compile WorkloadSource as program text;
	// "random" generates a seeded layered circuit from a workload.Spec
	// string. Frontend workloads carry no round structure, so
	// StrategyStitch rejects them.
	Workload string
	// WorkloadSource is the frontend input: program source for
	// qasm/scaffold, the canonical workload spec for random.
	WorkloadSource string
	// Defects names defective tiles of a heterogeneous mesh in the
	// canonical layout.DefectMap codec ("x,y;x,y" row-major). Defective
	// tiles host no qubits (placements relocate around them) and the
	// router treats their region as permanently blocked.
	Defects string
}

// Report is the outcome of a run.
type Report struct {
	// Config is the run's configuration.
	Config Config
	// Strategy is the mapper's Table I row label.
	Strategy string
	// Latency is the cycle at which the mapped factory's last gate
	// finishes in simulation.
	Latency int
	// Area is the bounding-box tile area of the mapped factory.
	Area int
	// Volume is Latency x Area, the paper's quantum volume.
	Volume float64
	// CriticalLatency is the dependency-limited lower bound on Latency
	// (Fig. 7's "theoretical lower bound", Table I "Critical").
	CriticalLatency int
	// CriticalVolume is CriticalLatency x Area.
	CriticalVolume float64
	// PermLatency is the round-2 permutation window for multi-level runs.
	PermLatency int
	// Stalls counts rejected braid attempts (congestion diagnostic).
	Stalls int

	// Factory is the built factory circuit.
	Factory *bravyi.Factory
	// Placement maps the factory's qubits onto the grid.
	Placement *layout.Placement
	// Sim is the mesh simulation the scalar outcomes come from.
	Sim *mesh.Result
}

// Run executes the full pipeline for cfg.
func Run(cfg Config) (*Report, error) { return RunContext(context.Background(), cfg) }

// RunContext is Run with cooperative cancellation: ctx is checked at
// every stage boundary (factory build, placement, simulation), so work
// abandoned by its caller — a vanished HTTP client, an expired request
// deadline — stops costing compute at the next boundary instead of
// running to completion. Cancellation returns ctx.Err(); partial work
// is discarded, never reported. It is Compose with the zero
// StageResolver: every stage is computed.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	return Compose(ctx, cfg, StageResolver{})
}

// Resolve answers one stage of Compose. compute produces the stage's
// artifact from scratch on the context it is given — a resolver that
// shares one computation among several pipelines passes a context that
// outlives any single one of them. A resolver may answer from a cache
// tier instead of calling compute, and may persist what compute
// returns. A nil Resolve computes on Compose's own context.
type Resolve[T any] func(ctx context.Context, cfg Config, compute func(context.Context) (T, error)) (T, error)

// run resolves through r, or computes when r is nil.
func (r Resolve[T]) run(ctx context.Context, cfg Config, compute func(context.Context) (T, error)) (T, error) {
	if r == nil {
		return compute(ctx)
	}
	return r(ctx, cfg, compute)
}

// StageResolver is Compose's seam for caching tiers: one Resolve per
// cacheable stage. The zero value computes every stage.
type StageResolver struct {
	// Build resolves the BuildStage artifact.
	Build Resolve[*BuildArtifact]
	// Place resolves the PlaceStage artifact of non-stitching strategies.
	Place Resolve[*PlaceArtifact]
	// Sim resolves the SimStage result when placement did not already
	// simulate its winner.
	Sim Resolve[*mesh.Result]
}

// Compose is the pipeline's only composition: BuildStage → PlaceStage
// → SimStage → Assemble, with each stage answered through r. It checks
// ctx at entry and again after placement — placement dominates the
// annealed strategies, so an abandoned caller is noticed there even
// when the placement already carries its simulation. Stitching's
// placement comes with its build artifact and is never resolved, and a
// placement that carries a simulation (force-directed's byproduct)
// skips sim resolution.
func Compose(ctx context.Context, cfg Config, r StageResolver) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := r.Build.run(ctx, cfg, func(ctx context.Context) (*BuildArtifact, error) { return BuildStage(ctx, cfg) })
	if err != nil {
		return nil, err
	}
	place := func(ctx context.Context) (*PlaceArtifact, error) { return PlaceStage(ctx, cfg, b) }
	var p *PlaceArtifact
	if cfg.Strategy == StrategyStitch {
		p, err = place(ctx)
	} else {
		p, err = r.Place.run(ctx, cfg, place)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sim := p.Sim
	if sim == nil {
		sim, err = r.Sim.run(ctx, cfg, func(ctx context.Context) (*mesh.Result, error) { return SimStage(ctx, cfg, b, p) })
		if err != nil {
			return nil, err
		}
	}
	return Assemble(cfg, b, p, sim), nil
}

// fdAnnealer is the process-wide annealing engine behind force-directed
// placements. Like the mesh simulator pool, its scratch arenas carry
// across sweep points: every FD evaluation in a batch reuses the same
// occupancy grid, proposal-order and sample buffers instead of
// reallocating them per point.
var fdAnnealer = force.NewAnnealer()

// placeFD anneals the linear mapping and keeps whichever of the initial
// and annealed candidates actually executes faster (the toolchain
// evaluates candidates in simulation, §VIII.A).
func placeFD(cfg Config, f *bravyi.Factory, mcfg mesh.Config) (*layout.Placement, *mesh.Result, error) {
	opt := cfg.FD
	opt.Seed = cfg.Seed
	dm, err := layout.ParseDefects(mcfg.Defects)
	if err != nil {
		return nil, nil, err
	}
	g := graph.FromCircuit(f.Circuit)
	init := initialPlacement(f)
	if err := layout.AvoidDefects(init, dm); err != nil {
		return nil, nil, err
	}
	annealed := fdAnnealer.Anneal(g, f.Circuit, init, opt)
	// The annealer knows nothing about defects; pull any qubit it
	// parked on a dead tile back onto healthy ground before the
	// candidates are scored, so the returned simulation always matches
	// the placement it comes with.
	if err := layout.AvoidDefects(annealed, dm); err != nil {
		return nil, nil, err
	}
	// Both candidates are evaluated on one reusable simulator: the
	// second run reuses the first's arenas and cached dependency DAG
	// (same circuit), paying only for the Result it returns.
	sim := mesh.NewSimulator()
	ri, err1 := sim.Simulate(f.Circuit, init, mcfg)
	ra, err2 := sim.Simulate(f.Circuit, annealed, mcfg)
	if err1 != nil {
		return nil, nil, err1
	}
	if err2 != nil {
		return nil, nil, err2
	}
	if ra.Volume().SpaceTime() <= ri.Volume().SpaceTime() {
		return annealed, ra, nil
	}
	return init, ri, nil
}

// Strategies lists every mapping strategy applicable to the given level
// count (hierarchical stitching needs the multi-level structure).
//
//deadcheck:keep every-strategy sweeps in the root integration_test and core's tests
func Strategies(levels int) []Strategy {
	ss := []Strategy{StrategyRandom, StrategyLinear, StrategyForceDirected, StrategyGraphPartition}
	if levels >= 2 {
		ss = append(ss, StrategyStitch)
	}
	return ss
}
