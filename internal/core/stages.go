package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/qasm"
	"magicstate/internal/resource"
	"magicstate/internal/scaffold"
	"magicstate/internal/stitch"
	"magicstate/internal/workload"
)

// Stage identifies one cacheable slice of the pipeline. The pipeline is
// a short DAG — build feeds placement feeds simulation feeds report
// assembly — and each of the three compute-bearing stages produces a
// serializable artifact a caching tier can persist and replay
// (assembly is arithmetic over the others' outputs and is never cached
// on its own). The numeric values are durable: they frame stage
// records on disk (see internal/store), so they must never be
// renumbered — add new stages at the end.
type Stage uint8

const (
	// StageBuild generates the factory circuit: bravyi.Build for the
	// flat strategies, stitch.Build (which also fixes the placement)
	// for hierarchical stitching.
	StageBuild Stage = 1
	// StagePlace maps the factory onto the grid under the non-stitching
	// strategies.
	StagePlace Stage = 2
	// StageSim executes the mapped circuit on the cycle-accurate mesh.
	StageSim Stage = 3
)

var stageNames = map[Stage]string{
	StageBuild: "build",
	StagePlace: "place",
	StageSim:   "sim",
}

// String returns the short stage label used in keys, stats and logs.
func (s Stage) String() string {
	if n, ok := stageNames[s]; ok {
		return n
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Stages lists every cacheable stage in pipeline order.
//
//deadcheck:keep every-stage key tests in store's stagekey_test and stagekey_fuzz_test
func Stages() []Stage { return []Stage{StageBuild, StagePlace, StageSim} }

// BuildArtifact is the output of StageBuild: the generated factory and,
// for hierarchical stitching only (where building and placing are one
// fused optimization), the placement it fixed. Artifacts are shared
// across pipeline runs by the caching tiers and must be treated as
// read-only by every consumer.
type BuildArtifact struct {
	// Factory is the generated factory circuit.
	Factory *bravyi.Factory
	// Placement is non-nil exactly for StrategyStitch builds.
	Placement *layout.Placement
}

// PlaceArtifact is the output of StagePlace. Sim is non-nil only when
// the placement search already executed the winning candidate in
// simulation (the force-directed mapper evaluates candidates that
// way); it is a freshness-only byproduct — the durable form of a
// PlaceArtifact keeps just the placement, and a replayed artifact
// recomputes the simulation deterministically in StageSim.
type PlaceArtifact struct {
	// Placement maps the factory's qubits onto the grid.
	Placement *layout.Placement
	// Sim is the winning candidate's simulation, or nil.
	Sim *mesh.Result
}

// CostModelOf resolves cfg's gate cost model (zero value = defaults).
func CostModelOf(cfg Config) resource.CostModel {
	if cfg.Cost == (resource.CostModel{}) {
		return resource.DefaultCost()
	}
	return cfg.Cost
}

// MeshConfigOf resolves the simulator configuration cfg implies — the
// exact mesh.Config the monolithic pipeline has always built, exposed
// so staged callers construct an identical one.
func MeshConfigOf(cfg Config) mesh.Config {
	return mesh.Config{
		Cost: CostModelOf(cfg), Mode: cfg.MeshMode, RouteMargin: cfg.RouteMargin,
		Style: cfg.Style, Distance: cfg.Distance, RecordPaths: cfg.RecordPaths,
		Defects: cfg.Defects,
	}
}

// BuildStage runs the factory/circuit build stage: parameter validation
// plus bravyi.Build, or stitch.Build for StrategyStitch (whose result
// carries the placement too, making StagePlace a pass-through). A
// frontend workload (qasm import, scaffold compile, random generation)
// replaces the factory build entirely: the compiled circuit is wrapped
// in a synthetic round-less factory the placement and simulation stages
// consume unchanged.
func BuildStage(ctx context.Context, cfg Config) (*BuildArtifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.Workload != "" {
		if cfg.Strategy == StrategyStitch {
			return nil, fmt.Errorf("core: hierarchical stitching needs the built-in factory's round structure; workload %q has none", cfg.Workload)
		}
		c, err := buildWorkloadCircuit(cfg)
		if err != nil {
			return nil, err
		}
		return &BuildArtifact{Factory: &bravyi.Factory{Circuit: c}}, nil
	}
	params := bravyi.Params{K: cfg.K, Levels: cfg.Levels, Reuse: cfg.Reuse, Barriers: !cfg.NoBarriers}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == StrategyStitch {
		sopt := cfg.Stitch
		sopt.Seed = cfg.Seed
		sopt.Reuse = cfg.Reuse
		sopt.NoBarriers = cfg.NoBarriers
		res, err := stitch.Build(params, sopt)
		if err != nil {
			return nil, err
		}
		return &BuildArtifact{Factory: res.Factory, Placement: res.Placement}, nil
	}
	f, err := bravyi.Build(params)
	if err != nil {
		return nil, err
	}
	return &BuildArtifact{Factory: f}, nil
}

// PlaceStage runs the placement stage on a build artifact. For
// stitching the placement was fixed by the build; every other strategy
// maps here. On a defective mesh, any qubit a mapper put on a dead tile
// is deterministically relocated to the nearest healthy one — for
// stitch the shared build artifact is cloned first, since artifacts are
// read-only across cache tiers. The context check at entry is the
// pipeline's post-build cancellation boundary.
func PlaceStage(ctx context.Context, cfg Config, b *BuildArtifact) (*PlaceArtifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dm, err := layout.ParseDefects(cfg.Defects)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Strategy == StrategyStitch {
		pl := b.Placement
		if dm.Len() > 0 {
			pl = pl.Clone()
			if err := layout.AvoidDefects(pl, dm); err != nil {
				return nil, err
			}
		}
		return &PlaceArtifact{Placement: pl}, nil
	}
	pl, sim, err := place(cfg, b.Factory, MeshConfigOf(cfg))
	if err != nil {
		return nil, err
	}
	// The force-directed mapper relocates inside its own candidate
	// evaluation so its simulation matches its placement; every other
	// mapper returns a fresh placement we fix up here.
	if cfg.Strategy != StrategyForceDirected {
		if err := layout.AvoidDefects(pl, dm); err != nil {
			return nil, err
		}
	}
	return &PlaceArtifact{Placement: pl, Sim: sim}, nil
}

// SimStage runs the routing/simulation stage. When the placement stage
// already simulated the winning candidate (p.Sim non-nil) that result
// is the stage's output; otherwise the mapped circuit executes on the
// mesh. Like every stage it checks ctx at entry; Compose holds the
// post-placement boundary itself, since it skips SimStage when the
// placement already carries the simulation.
func SimStage(ctx context.Context, cfg Config, b *BuildArtifact, p *PlaceArtifact) (*mesh.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.Sim != nil {
		return p.Sim, nil
	}
	return mesh.Simulate(b.Factory.Circuit, p.Placement, MeshConfigOf(cfg))
}

// permLatencyFailures counts permutation-window computations that
// failed during report assembly. The window is derived from the
// factory's round structure and the simulation's per-gate timing; a
// failure means those two disagree (a stage-cache bug serving a
// mismatched artifact, or a malformed factory) and must be observable
// rather than silently reported as a zero window.
var permLatencyFailures atomic.Int64

// PermLatencyFailures reports how many permutation-window computations
// have failed process-wide. A healthy pipeline never increments it.
func PermLatencyFailures() int64 { return permLatencyFailures.Load() }

// Assemble derives the report from the three stage artifacts: scalar
// outcomes from the simulation, the dependency-limited lower bound from
// the cost model, and the round-2 permutation window for multi-level
// runs. It is pure arithmetic — cheap enough that it is never cached.
func Assemble(cfg Config, b *BuildArtifact, p *PlaceArtifact, sim *mesh.Result) *Report {
	cm := CostModelOf(cfg)
	rep := &Report{
		Config:          cfg,
		Strategy:        cfg.Strategy.String(),
		Latency:         sim.Latency,
		Area:            sim.Area,
		Volume:          float64(sim.Latency) * float64(sim.Area),
		CriticalLatency: cm.CriticalPath(b.Factory.Circuit),
		Stalls:          sim.Stalls,
		Factory:         b.Factory,
		Placement:       p.Placement,
		Sim:             sim,
	}
	rep.CriticalVolume = float64(rep.CriticalLatency) * float64(rep.Area)
	if cfg.Levels >= 2 {
		if perm, err := stitch.PermutationLatency(b.Factory, sim.Start, sim.End, 2); err != nil {
			permLatencyFailures.Add(1)
		} else {
			rep.PermLatency = perm
		}
	}
	return rep
}

// place maps the factory under every non-stitching strategy. When the
// strategy already evaluated its winning candidate in simulation (force
// directed), the simulation result is returned alongside the placement
// so the simulation stage does not repeat it.
func place(cfg Config, f *bravyi.Factory, mcfg mesh.Config) (*layout.Placement, *mesh.Result, error) {
	switch cfg.Strategy {
	case StrategyRandom:
		return layout.Random(f.Circuit.NumQubits, rand.New(rand.NewSource(cfg.Seed))), nil, nil
	case StrategyLinear:
		return initialPlacement(f), nil, nil
	case StrategyForceDirected:
		return placeFD(cfg, f, mcfg)
	case StrategyGraphPartition:
		g := graph.FromCircuit(f.Circuit)
		return partitionEmbed(g, cfg.Seed), nil, nil
	}
	return nil, nil, fmt.Errorf("core: unknown strategy %v", cfg.Strategy)
}

// initialPlacement is the "linear" starting point for a factory: the
// hand-optimized single-row mapping when the factory has round
// structure, a row-major near-square grid for the synthetic round-less
// factories frontend workloads build (layout.Linear walks rounds and
// would place nothing).
func initialPlacement(f *bravyi.Factory) *layout.Placement {
	if len(f.Rounds) > 0 {
		return layout.Linear(f)
	}
	n := f.Circuit.NumQubits
	w, _ := layout.GridFor(n, 1)
	p := layout.NewPlacement(n, w, (n+w-1)/w)
	for q, pt := range layout.RowMajorTiles(n, w) {
		p.Set(q, pt)
	}
	return p
}

// buildWorkloadCircuit dispatches cfg.Workload to its frontend.
func buildWorkloadCircuit(cfg Config) (*circuit.Circuit, error) {
	return CompileWorkload(cfg.Workload, cfg.WorkloadSource, cfg.Seed)
}

// CompileWorkload compiles a frontend workload input to a validated
// circuit. Every frontend validates its circuit before returning it, so
// callers get a well-formed circuit or a structured error — this is the
// boundary the HTTP and CLI surfaces call to reject bad inputs up
// front, before any pipeline compute is admitted.
func CompileWorkload(kind, source string, seed int64) (*circuit.Circuit, error) {
	switch kind {
	case "qasm":
		return qasm.Compile(source)
	case "scaffold":
		return scaffold.Compile(source)
	case "random":
		return workload.GenerateString(source, seed)
	}
	return nil, fmt.Errorf("core: unknown workload %q (want qasm, scaffold or random)", kind)
}
