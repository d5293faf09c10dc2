// Package plan is the end-to-end provisioning planner: given an
// application's T-gate count and target logical error budget (the §II.D
// sizing exercise — e.g. the Fe2S2 ground-state estimate with ~10^12 T
// gates), it selects a Bravyi-Haah block size and recursion depth from the
// protocol zoo, prices the mapped factory with the resource model, derates
// throughput by the Monte-Carlo-validated batch success probability, and
// sizes the factory farm and prepared-state buffer of §IX. It turns the
// repository's substrates into the provisioning answer a machine architect
// actually needs: how many factories, how many physical qubits, how long.
package plan

import (
	"context"
	"fmt"
	"math"

	"magicstate/internal/bravyi"
	"magicstate/internal/resource"
	"magicstate/internal/sweep"
	"magicstate/internal/system"
)

// Requirements describes the application and machine.
type Requirements struct {
	// TCount is the total number of T gates the application executes.
	TCount float64
	// ErrorBudget is the acceptable probability that any magic state
	// faults over the whole run; per-state target error is
	// ErrorBudget / TCount.
	ErrorBudget float64
	// DemandRate is the T gates consumed per surface-code cycle (from
	// the application's parallelism; e.g. 1/50 means one T per 50
	// cycles).
	DemandRate float64
	// Errors is the physical error model (zero value = defaults).
	Errors resource.ErrorModel
	// CandidateKs are the Bravyi-Haah block sizes to consider (nil means
	// {1, 2, 4, 6, 8}).
	CandidateKs []int
	// MaxLevels caps the recursion depth (zero means 4).
	MaxLevels int
	// Headroom is the production margin over demand (zero means 1.2).
	Headroom float64
	// MaxModules prunes impractically wide factories before they are
	// generated (zero means 4000 modules; a K=8 four-level factory would
	// otherwise instantiate 32768 round-1 modules just to be rejected on
	// cost).
	MaxModules int
	// Workers bounds the candidate search's parallelism: each candidate
	// block size K is priced on its own sweep-engine worker (zero means
	// one worker per CPU; 1 reproduces the serial scan exactly).
	Workers int
}

func (r *Requirements) fill() error {
	if r.TCount < 1 {
		return fmt.Errorf("plan: TCount must be >= 1, got %g", r.TCount)
	}
	if r.ErrorBudget <= 0 || r.ErrorBudget >= 1 {
		return fmt.Errorf("plan: ErrorBudget %g out of (0,1)", r.ErrorBudget)
	}
	if r.DemandRate <= 0 {
		return fmt.Errorf("plan: DemandRate must be positive, got %g", r.DemandRate)
	}
	if r.Errors == (resource.ErrorModel{}) {
		r.Errors = resource.DefaultError()
	}
	if len(r.CandidateKs) == 0 {
		r.CandidateKs = []int{1, 2, 4, 6, 8}
	}
	if r.MaxLevels == 0 {
		r.MaxLevels = 4
	}
	if r.Headroom == 0 {
		r.Headroom = 1.2
	}
	if r.Headroom < 1 {
		return fmt.Errorf("plan: Headroom %g below 1", r.Headroom)
	}
	if r.MaxModules == 0 {
		r.MaxModules = 4000
	}
	return nil
}

// Provision is the planner's answer.
type Provision struct {
	// Params is the chosen factory configuration.
	Params bravyi.Params
	// TargetPerState is the per-state error the budget implies.
	TargetPerState float64
	// OutputError is the achieved per-state error.
	OutputError float64
	// BatchLatency is the estimated cycles per factory batch: the
	// critical path of the factory circuit under the default cost model,
	// derived per round from one module (resource.FactoryCriticalPath)
	// rather than read off a generated circuit.
	BatchLatency int
	// SuccessProb is the full-batch success probability (first order).
	SuccessProb float64
	// Factories is the farm size meeting demand with headroom.
	Factories int
	// BufferSize is the smallest buffer keeping the simulated stall
	// fraction under 1%.
	BufferSize int
	// PhysicalQubits totals the farm's physical qubits under
	// balanced-investment code distances.
	PhysicalQubits int
	// RunCycles estimates the application duration in cycles
	// (TCount / DemandRate).
	RunCycles float64
	// RawStates estimates total raw injected states consumed, retries
	// included.
	RawStates float64
}

// Plan selects the cheapest candidate meeting the error target and sizes
// the farm for it. Cost is physical-qubit count of the farm; ties break
// toward fewer factories. The candidate block sizes are priced
// concurrently on the sweep engine's worker pool (Requirements.Workers);
// the reduction walks them in submission order, so the winner — and
// every tie-break — is identical to the serial scan's.
func Plan(req Requirements) (*Provision, error) {
	if err := req.fill(); err != nil {
		return nil, err
	}
	target := req.ErrorBudget / req.TCount
	eng := sweep.New(sweep.Options{Workers: req.Workers})
	candidates, err := sweep.Map(context.Background(), eng, req.CandidateKs,
		func(_ int, k int) (*Provision, error) { return planForK(req, k, target) })
	if err != nil {
		return nil, err
	}
	var best *Provision
	for _, prov := range candidates {
		if prov == nil {
			continue
		}
		if best == nil || prov.PhysicalQubits < best.PhysicalQubits ||
			(prov.PhysicalQubits == best.PhysicalQubits && prov.Factories < best.Factories) {
			best = prov
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no candidate reaches per-state error %g from inject error %g",
			target, req.Errors.InjectError)
	}
	return best, nil
}

// planForK scans recursion depths for one block size and provisions the
// shallowest viable depth (deeper recursion only costs more for a given
// k); nil means no depth works for this k.
func planForK(req Requirements, k int, target float64) (*Provision, error) {
	for levels := 1; levels <= req.MaxLevels; levels++ {
		p := bravyi.Params{K: k, Levels: levels, Reuse: levels >= 2, Barriers: true}
		errs := req.Errors.RoundErrors(p)
		out := errs[len(errs)-1]
		if out > target {
			continue
		}
		if p.TotalModules() > req.MaxModules {
			return nil, nil // wider K at deeper levels only grows further
		}
		prov, err := provisionFor(req, p, target, out)
		if err != nil {
			return nil, err
		}
		if prov == nil {
			continue // throughput unattainable (success prob ~ 0)
		}
		return prov, nil
	}
	return nil, nil
}

func provisionFor(req Requirements, p bravyi.Params, target, out float64) (*Provision, error) {
	latency, err := resource.DefaultCost().FactoryCriticalPath(p)
	if err != nil {
		return nil, err
	}
	runs := resource.ExpectedRunsPerSuccess(p, req.Errors)
	if runs >= 1e17 {
		return nil, nil // hopeless success probability
	}
	succ := 1 / runs

	cfg := system.Config{
		FactoryLatency: latency,
		BatchSize:      p.Capacity(),
		SuccessProb:    succ,
		DemandRate:     req.DemandRate,
		Factories:      1,
		Cycles:         1,
		BufferSize:     1,
	}
	factories := system.FactoriesFor(cfg, req.Headroom)
	perFactory := 0
	for _, q := range req.Errors.PhysicalQubitsPerRound(p) {
		perFactory += q
	}
	if factories == 0 || factories > math.MaxInt/perFactory {
		return nil, nil // unattainable, or too many qubits to count
	}
	cfg.Factories = factories

	// Smallest buffer with < 1% stalls over a representative horizon.
	// Large farms are fluid-scaled down for the sizing simulation
	// (factories, demand and buffer shrink together; the stall fraction
	// is approximately scale-invariant in this aggregate model) so the
	// planner stays fast for farm sizes in the thousands.
	simCfg := cfg
	scale := 1
	if factories > 64 {
		scale = (factories + 63) / 64
		simCfg.Factories = (factories + scale - 1) / scale
		simCfg.DemandRate = cfg.DemandRate / float64(scale)
	}
	simCfg.Cycles = 30 * latency
	if simCfg.Cycles > 300_000 {
		simCfg.Cycles = 300_000
	}
	if simCfg.Cycles < 10*latency {
		simCfg.Cycles = 10 * latency
	}
	simCfg.Seed = 1
	buffer := p.Capacity()
	for ; buffer <= 64*p.Capacity(); buffer *= 2 {
		c := simCfg
		c.BufferSize = buffer
		r, err := system.Simulate(c)
		if err != nil {
			return nil, err
		}
		if r.StallFraction() < 0.01 {
			break
		}
	}
	if buffer > math.MaxInt/scale {
		return nil, nil // too many buffered states to count
	}
	buffer *= scale

	prov := &Provision{
		Params:         p,
		TargetPerState: target,
		OutputError:    out,
		BatchLatency:   latency,
		SuccessProb:    succ,
		Factories:      factories,
		BufferSize:     buffer,
		PhysicalQubits: factories * perFactory,
		RunCycles:      req.TCount / req.DemandRate,
		RawStates:      req.TCount / float64(p.Capacity()) * float64(p.Inputs()) * runs,
	}
	return prov, nil
}

// String renders the provision as a short report.
func (p *Provision) String() string {
	return fmt.Sprintf(
		"K=%d L=%d factory: out err %.2e (target %.2e), batch %d states / %d cycles, "+
			"P(batch)=%.3f, %d factories, buffer %d, %d physical qubits",
		p.Params.K, p.Params.Levels, p.OutputError, p.TargetPerState,
		p.Params.Capacity(), p.BatchLatency, p.SuccessProb,
		p.Factories, p.BufferSize, p.PhysicalQubits)
}
