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
	// one worker per CPU; 1 reproduces the serial scan exactly). The
	// buffer is sized after the reduction, on the caller's goroutine,
	// by simulating only the chosen candidate's farm.
	Workers int
}

func (r *Requirements) fill() error {
	// The range tests are written so that NaN fails them.
	if !(r.TCount >= 1) {
		return fmt.Errorf("plan: TCount must be >= 1, got %g", r.TCount)
	}
	if !(r.ErrorBudget > 0 && r.ErrorBudget < 1) {
		return fmt.Errorf("plan: ErrorBudget %g out of (0,1)", r.ErrorBudget)
	}
	if !(r.DemandRate > 0 && r.DemandRate <= math.MaxFloat64) {
		return fmt.Errorf("plan: DemandRate must be positive and finite, got %g", r.DemandRate)
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
	if !(r.Headroom >= 1 && r.Headroom <= math.MaxFloat64) {
		return fmt.Errorf("plan: Headroom %g out of [1,+Inf)", r.Headroom)
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
// every tie-break — is identical to the serial scan's. Neither cost
// depends on the buffer, so only the chosen candidate's buffer is
// simulated, once, after the reduction.
//
// With no plan, the error tells a target no candidate's error reaches
// from one that some candidate reaches only with a farm that cannot be
// built: 1e17 or more runs per success, 2^53 or more factories, more
// physical qubits than an int counts, or more than MaxModules modules.
func Plan(req Requirements) (*Provision, error) {
	if err := req.fill(); err != nil {
		return nil, err
	}
	target := req.ErrorBudget / req.TCount
	eng := sweep.New(sweep.Options{Workers: req.Workers})
	candidates, err := sweep.Map(context.Background(), eng, req.CandidateKs,
		func(_ int, k int) (kPlan, error) { return planForK(req, k, target) })
	if err != nil {
		return nil, err
	}
	var best *Provision
	reached := false
	for _, c := range candidates {
		reached = reached || c.reached
		prov := c.prov
		if prov == nil {
			continue
		}
		if best == nil || prov.PhysicalQubits < best.PhysicalQubits ||
			(prov.PhysicalQubits == best.PhysicalQubits && prov.Factories < best.Factories) {
			best = prov
		}
	}
	switch {
	case best != nil:
		if err := sizeBuffer(req, best); err != nil {
			return nil, err
		}
		return best, nil
	case reached:
		return nil, fmt.Errorf("plan: candidates reach per-state error %g from inject error %g, but none is attainable "+
			"(1e17 or more runs per success, 2^53 or more factories, too many qubits to count, or over %d modules)",
			target, req.Errors.InjectError, req.MaxModules)
	}
	return nil, fmt.Errorf("plan: no candidate reaches per-state error %g from inject error %g",
		target, req.Errors.InjectError)
}

// kPlan is one block size's outcome: its provision, if any, and whether
// some depth's output error reaches the target at all.
type kPlan struct {
	prov    *Provision
	reached bool
}

// planForK scans recursion depths for one block size and provisions the
// shallowest viable depth (deeper recursion only costs more for a given
// k); a nil provision means no depth works for this k.
func planForK(req Requirements, k int, target float64) (kPlan, error) {
	var res kPlan
	for levels := 1; levels <= req.MaxLevels; levels++ {
		p := bravyi.Params{K: k, Levels: levels, Reuse: levels >= 2, Barriers: true}
		errs := req.Errors.RoundErrors(p)
		out := errs[len(errs)-1]
		if out > target {
			continue
		}
		res.reached = true
		if p.TotalModules() > req.MaxModules {
			return res, nil // wider K at deeper levels only grows further
		}
		prov, err := provisionFor(req, p, target, out)
		if err != nil {
			return res, err
		}
		if prov == nil {
			continue // throughput unattainable (success prob ~ 0)
		}
		res.prov = prov
		return res, nil
	}
	return res, nil
}

// provisionFor prices one candidate: every field but BufferSize, which
// Plan sizes once it has chosen. The sizing simulation is validated
// here, so a config it would reject fails this candidate.
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

	factories := system.FactoriesFor(system.Config{
		FactoryLatency: latency,
		BatchSize:      p.Capacity(),
		SuccessProb:    succ,
		DemandRate:     req.DemandRate,
	}, req.Headroom)
	perFactory := 0
	for _, q := range req.Errors.PhysicalQubitsPerRound(p) {
		perFactory += q
	}
	if factories == 0 || factories > math.MaxInt/perFactory {
		return nil, nil // unattainable, or too many qubits to count
	}

	prov := &Provision{
		Params:         p,
		TargetPerState: target,
		OutputError:    out,
		BatchLatency:   latency,
		SuccessProb:    succ,
		Factories:      factories,
		PhysicalQubits: factories * perFactory,
		RunCycles:      req.TCount / req.DemandRate,
		RawStates:      req.TCount / float64(p.Capacity()) * float64(p.Inputs()) * runs,
	}
	sim, _ := sizingSim(req, prov)
	if err := sim.Validate(); err != nil {
		return nil, err
	}
	return prov, nil
}

// sizingSim is the simulation that sizes prov's buffer, and the factor
// its farm is scaled down by. Large farms are fluid-scaled down for the
// sizing simulation (factories, demand and buffer shrink together; the
// stall fraction is approximately scale-invariant in this aggregate
// model) so the planner stays fast for farm sizes in the thousands.
func sizingSim(req Requirements, prov *Provision) (system.Config, int) {
	sim := system.Config{
		FactoryLatency: prov.BatchLatency,
		BatchSize:      prov.Params.Capacity(),
		SuccessProb:    prov.SuccessProb,
		DemandRate:     req.DemandRate,
		Factories:      prov.Factories,
		Seed:           1,
	}
	scale := 1
	if prov.Factories > 64 {
		scale = (prov.Factories + 63) / 64
		sim.Factories = (prov.Factories + scale - 1) / scale
		sim.DemandRate = req.DemandRate / float64(scale)
	}
	sim.Cycles = 30 * prov.BatchLatency
	if sim.Cycles > 300_000 {
		sim.Cycles = 300_000
	}
	if sim.Cycles < 10*prov.BatchLatency {
		sim.Cycles = 10 * prov.BatchLatency
	}
	return sim, scale
}

// sizeBuffer sets prov.BufferSize to the smallest buffer with < 1%
// stalls over a representative horizon.
func sizeBuffer(req Requirements, prov *Provision) error {
	sim, scale := sizingSim(req, prov)
	buffer := prov.Params.Capacity()
	for ; buffer <= 64*prov.Params.Capacity(); buffer *= 2 {
		sim.BufferSize = buffer
		r, err := system.Simulate(sim)
		if err != nil {
			return err
		}
		if r.StallFraction() < 0.01 {
			break
		}
	}
	// A safety check that pricing leaves unreachable: every code distance
	// is at least 3, so a factory's qubit bill exceeds 45 batches, and a
	// farm of over 64 factories whose bill an int counts also counts 128
	// scaled batches. A smaller farm needs batches of over MaxInt/128
	// states, far wider than any factory whose critical path is priced.
	if buffer > math.MaxInt/scale {
		return fmt.Errorf("plan: buffer of %d batches of %d states, scaled by %d, is more states than an int counts",
			buffer/prov.Params.Capacity(), prov.Params.Capacity(), scale)
	}
	prov.BufferSize = buffer * scale
	return nil
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
