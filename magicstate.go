package magicstate

import (
	"fmt"

	"strings"

	"magicstate/internal/bravyi"
	"magicstate/internal/core"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/plan"
	"magicstate/internal/resource"
	"magicstate/internal/trace"
)

// InteractionStyle selects how two-qubit logical operations claim the
// lattice — the §IX braiding / lattice-surgery / teleportation study.
type InteractionStyle int

// Interaction styles. Braiding (the zero value) is the paper's model.
const (
	Braiding       InteractionStyle = InteractionStyle(mesh.StyleBraiding)
	LatticeSurgery InteractionStyle = InteractionStyle(mesh.StyleLatticeSurgery)
	Teleportation  InteractionStyle = InteractionStyle(mesh.StyleTeleportation)
)

// String names the style.
func (s InteractionStyle) String() string { return mesh.InteractionStyle(s).String() }

// Strategy selects a qubit mapping procedure.
type Strategy int

// The paper's five mapping strategies (Table I rows).
const (
	RandomMapping         Strategy = Strategy(core.StrategyRandom)
	LinearMapping         Strategy = Strategy(core.StrategyLinear)
	ForceDirected         Strategy = Strategy(core.StrategyForceDirected)
	GraphPartitioning     Strategy = Strategy(core.StrategyGraphPartition)
	HierarchicalStitching Strategy = Strategy(core.StrategyStitch)
)

// String returns the strategy's Table I label.
func (s Strategy) String() string { return core.Strategy(s).String() }

// ParseStrategy maps a strategy name — "random", "line", "fd", "gp" or
// "hs" — to its Strategy. It is the one name table shared by every
// entry point that accepts strategy names (the msfu CLI flags, the
// msfud HTTP API), so the surfaces cannot drift apart.
func ParseStrategy(name string) (Strategy, error) {
	st, ok := map[string]Strategy{
		"random": RandomMapping,
		"line":   LinearMapping,
		"fd":     ForceDirected,
		"gp":     GraphPartitioning,
		"hs":     HierarchicalStitching,
	}[name]
	if !ok {
		return 0, fmt.Errorf("magicstate: unknown strategy %q (want random|line|fd|gp|hs)", name)
	}
	return st, nil
}

// ParseStyle maps an interaction style name — "braiding", "surgery" or
// "teleport" — to its InteractionStyle, sharing one name table across
// the CLI and HTTP surfaces like ParseStrategy.
func ParseStyle(name string) (InteractionStyle, error) {
	st, ok := map[string]InteractionStyle{
		"braiding": Braiding,
		"surgery":  LatticeSurgery,
		"teleport": Teleportation,
	}[name]
	if !ok {
		return 0, fmt.Errorf("magicstate: unknown style %q (want braiding|surgery|teleport)", name)
	}
	return st, nil
}

// FactorySpec describes the magic-state factory to build.
type FactorySpec struct {
	// Capacity is the number of distilled states produced per run; it
	// must be a perfect Levels-th power (the factory produces k^Levels
	// states from a (3k+8) -> k protocol).
	Capacity int
	// Levels is the block-code recursion depth (1 or 2 in the paper).
	Levels int
	// Reuse enables sharing-after-measurement qubit reuse between rounds.
	Reuse bool
}

// params converts the spec to protocol parameters.
func (s FactorySpec) params() (bravyi.Params, error) {
	p, err := bravyi.ParamsForCapacity(s.Capacity, s.Levels)
	if err != nil {
		return p, err
	}
	p.Reuse = s.Reuse
	return p, nil
}

// Options tunes an optimization run.
type Options struct {
	// Strategy picks the mapper (default HierarchicalStitching for
	// multi-level factories, LinearMapping otherwise).
	Strategy Strategy
	// Seed makes the run reproducible.
	Seed int64
	// DisableBarriers removes the inter-round scheduling fences.
	DisableBarriers bool
	// Trace populates Result.Trace with a utilization report (braid
	// concurrency sparkline, per-round timing, permutation share,
	// per-kind cycle breakdown).
	Trace bool
	// Style selects the surface-code interaction discipline (§IX);
	// Braiding (the zero value) reproduces the paper.
	Style InteractionStyle
	// Distance feeds the distance-sensitive styles (zero means 7,
	// negative is an error).
	Distance int
	// Workload, when non-empty, replaces the built-in factory build with
	// a frontend circuit: "qasm" (OpenQASM 2 subset), "scaffold"
	// (Scaffold subset) or "random" (seeded layered generator). The
	// FactorySpec is ignored for workload runs, and the default strategy
	// becomes LinearMapping; HierarchicalStitching is rejected because it
	// needs the built-in factory's round structure.
	Workload string
	// WorkloadSource is the workload's input: program source for "qasm"
	// and "scaffold", a generator spec like "q=8;layers=12;cx=0.4;t=0.2"
	// for "random".
	WorkloadSource string
	// Defects is a canonical defect map ("x,y;x,y", row-major sorted)
	// naming mesh tiles that are fabrication-defective: they expose no
	// ports, routing avoids them, and mappers relocate qubits off them.
	// Empty means a pristine mesh.
	Defects     string
	strategySet bool
}

// WithStrategy returns o with the strategy set explicitly (distinguishing
// "unset" from RandomMapping, which is the zero value).
func (o Options) WithStrategy(s Strategy) Options {
	o.Strategy = s
	o.strategySet = true
	return o
}

// Result reports an optimized factory. Its JSON encoding, in field
// order and without the trace, is also the wire form of one point's
// result in msfud's replies and in `paperbench preset` output.
type Result struct {
	// Strategy echoes the mapper used.
	Strategy string `json:"strategy"`
	// Latency is the simulated execution time in surface-code cycles.
	Latency int `json:"latency"`
	// Area is the logical-qubit tile count.
	Area int `json:"area"`
	// Volume is Latency x Area, the paper's quantum volume metric.
	Volume float64 `json:"volume"`
	// CriticalLatency is the dependency-limited latency lower bound
	// ("theoretical lower bound" in Fig. 7).
	CriticalLatency int `json:"critical_latency"`
	// CriticalVolume is the volume at the dependency-limited bound.
	CriticalVolume float64 `json:"critical_volume"`
	// PermutationLatency is the inter-round permutation window for
	// multi-level factories (Fig. 9d's metric).
	PermutationLatency int `json:"permutation_latency,omitempty"`
	// Trace is the utilization report (only with Options.Trace).
	Trace string `json:"-"`
}

// Optimize builds, maps and simulates the factory described by spec.
// For grids of factories, OptimizeBatch evaluates many specs on a
// worker pool with the same per-point results.
func Optimize(spec FactorySpec, opts Options) (*Result, error) {
	cfg, err := optimizeConfig(spec, opts)
	if err != nil {
		return nil, err
	}
	rep, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	return resultFromReport(rep, opts)
}

// resultFromReport converts a pipeline report to the public Result,
// rendering the utilization trace when requested.
func resultFromReport(rep *core.Report, opts Options) (*Result, error) {
	res := &Result{
		Latency:            rep.Latency,
		Area:               rep.Area,
		Volume:             rep.Volume,
		CriticalLatency:    rep.CriticalLatency,
		CriticalVolume:     rep.CriticalVolume,
		PermutationLatency: rep.PermLatency,
		Strategy:           rep.Strategy,
	}
	if opts.Trace {
		var sb strings.Builder
		if err := trace.WriteReport(&sb, rep.Factory, rep.Sim); err != nil {
			return nil, err
		}
		if heat, lat, err := mesh.CongestionMap(rep.Sim, rep.Placement); err == nil {
			sb.WriteString("channel congestion ('#' tiles, '1'-'9' heat):\n")
			sb.WriteString(mesh.RenderCongestion(heat, lat, 120, 60))
		}
		res.Trace = sb.String()
	}
	return res, nil
}

// ResourceEstimate reports the physical-qubit provisioning of a factory
// under the balanced-investment error model of §II.G.
type ResourceEstimate struct {
	// RoundDistances holds the surface code distance chosen per round.
	RoundDistances []int
	// PhysicalQubitsPerRound expands each round's logical tiles by d^2.
	PhysicalQubitsPerRound []int
	// OutputError is the distilled state error after the final round.
	OutputError float64
	// ExpectedRunsPerBatch derates throughput for distillation failures.
	ExpectedRunsPerBatch float64
}

// EstimateResources evaluates spec under the default error model
// (p_phys = 1e-3, injected state error 5e-3).
func EstimateResources(spec FactorySpec) (*ResourceEstimate, error) {
	p, err := spec.params()
	if err != nil {
		return nil, err
	}
	em := resource.DefaultError()
	errs := em.RoundErrors(p)
	return &ResourceEstimate{
		RoundDistances:         em.BalancedDistances(p),
		PhysicalQubitsPerRound: em.PhysicalQubitsPerRound(p),
		OutputError:            errs[len(errs)-1],
		ExpectedRunsPerBatch:   resource.ExpectedRunsPerSuccess(p, em),
	}, nil
}

// Validate checks a spec without running anything.
func (s FactorySpec) Validate() error {
	if _, err := s.params(); err != nil {
		return fmt.Errorf("magicstate: %w", err)
	}
	return nil
}

// ValidateWorkload checks a frontend workload input — kind plus source,
// as Options.Workload/WorkloadSource take them — without running the
// pipeline: the source is compiled (or generated) and the resulting
// circuit validated, exactly as the build stage will do. Serving
// surfaces call this at the request boundary so malformed programs are
// rejected as client errors before any compute is admitted.
func ValidateWorkload(kind, source string, seed int64) error {
	_, err := core.CompileWorkload(kind, source, seed)
	return err
}

// ValidateDefects checks a defect-map string (Options.Defects) without
// running anything.
func ValidateDefects(s string) error {
	_, err := layout.ParseDefects(s)
	return err
}

// Application describes a workload to provision magic-state production
// for, in the units of the paper's §II.D sizing exercise.
type Application struct {
	// TCount is the total number of T gates the application executes.
	TCount float64
	// ErrorBudget is the acceptable probability that any distilled state
	// faults over the whole run (per-state target = ErrorBudget/TCount).
	ErrorBudget float64
	// TGatesPerCycle is the application's T-consumption rate.
	TGatesPerCycle float64
}

// Provision is a complete factory-farm sizing: the chosen block code, the
// farm and buffer dimensions, and the physical-qubit bill.
type Provision struct {
	// CapacityPerFactory is the states one factory delivers per batch.
	CapacityPerFactory int
	// K and Levels are the chosen Bravyi-Haah parameters.
	K, Levels int
	// OutputError is the achieved per-state error.
	OutputError float64
	// BatchLatency is the cycles per factory batch (critical path).
	BatchLatency int
	// BatchSuccessProbability derates throughput for failed batches.
	BatchSuccessProbability float64
	// Factories is the farm size.
	Factories int
	// BufferSize is the prepared-state buffer keeping stalls under 1%.
	BufferSize int
	// PhysicalQubits totals the farm under balanced-investment distances.
	PhysicalQubits int
	// RawStates estimates total injected raw states, retries included.
	RawStates float64
}

// PlanProvision sizes a factory farm for the application: it selects the
// cheapest Bravyi-Haah block code meeting the error budget, derates for
// batch failures, and dimensions the farm and buffer of §IX.
func PlanProvision(app Application) (*Provision, error) {
	prov, err := plan.Plan(plan.Requirements{
		TCount:      app.TCount,
		ErrorBudget: app.ErrorBudget,
		DemandRate:  app.TGatesPerCycle,
	})
	if err != nil {
		return nil, err
	}
	return &Provision{
		CapacityPerFactory:      prov.Params.Capacity(),
		K:                       prov.Params.K,
		Levels:                  prov.Params.Levels,
		OutputError:             prov.OutputError,
		BatchLatency:            prov.BatchLatency,
		BatchSuccessProbability: prov.SuccessProb,
		Factories:               prov.Factories,
		BufferSize:              prov.BufferSize,
		PhysicalQubits:          prov.PhysicalQubits,
		RawStates:               prov.RawStates,
	}, nil
}
