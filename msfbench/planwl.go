package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"magicstate/internal/bravyi"
	"magicstate/internal/plan"
	"magicstate/internal/resource"
	"magicstate/internal/system"
)

// planProvision asks plan.Plan for a provision for a fixed set of
// applications. T = 1e7 scans deep candidates (K = 4 and 6 at three
// levels, whose dependency analysis is the expensive part); the larger
// T-counts prune early and stay cheap. Every application succeeds.
type planProvision struct {
	workers int
}

// planTCounts are the applications' T-gate counts. T >= 1e13 answers
// "no candidate" after a full deep scan, so none is that large.
var planTCounts = []float64{1e7, 1e8, 1e9, 1e10}

// planApps derives the applications for seed: the T-counts are fixed,
// the demand rates are drawn from the seed. Demand sizes the farm and
// the buffer simulation but never changes which candidates are scanned.
func planApps(seed int64, workers int) []plan.Requirements {
	rng := rand.New(rand.NewSource(seed))
	var reqs []plan.Requirements
	for _, t := range planTCounts {
		reqs = append(reqs, plan.Requirements{
			TCount:      t,
			ErrorBudget: 0.01,
			DemandRate:  (1 + 0.2*rng.Float64()) / 50,
			Errors:      resource.DefaultError(),
			CandidateKs: []int{1, 2, 4, 6, 8},
			MaxLevels:   4,
			Headroom:    1.2,
			MaxModules:  4000,
			Workers:     workers,
		})
	}
	return reqs
}

func (w *planProvision) setup(warmSeed int64) error {
	req := planApps(warmSeed, w.workers)[1]
	if _, err := plan.Plan(req); err != nil {
		return fmt.Errorf("plan warm-up: %w", err)
	}
	return nil
}

func (w *planProvision) pass(seed int64, tr *tracer, lc *layerCounts, _ bool) (*passOut, error) {
	out := &passOut{quality: map[string]float64{}, counters: map[string]float64{}}
	var vols []float64
	qubits := 0
	reqs := planApps(seed, w.workers)
	provs := make([]*plan.Provision, len(reqs))
	errs := make([]error, len(reqs))
	t0 := time.Now()
	p := tr.pass()
	for i, req := range reqs {
		root := tr.root(spanPlan, int64(i))
		provs[i], errs[i] = plan.Plan(req)
		root.end()
	}
	p.end()
	out.endTimed(t0)
	if tr != nil {
		for i, req := range reqs {
			if errs[i] != nil {
				continue
			}
			if err := planLayers(tr, int64(i), req, provs[i]); err != nil {
				out.attempted++
				out.fail(fmt.Errorf("T=%g: layer calls: %w", req.TCount, err))
			}
		}
	}
	for i, req := range reqs {
		prov, err := provs[i], errs[i]
		out.attempted++
		if err == nil {
			err = checkProvision(prov)
		}
		if err != nil {
			out.fail(fmt.Errorf("T=%g: %w", req.TCount, err))
			continue
		}
		qubits += prov.PhysicalQubits
		vols = append(vols, float64(prov.PhysicalQubits)*float64(prov.BatchLatency))
		out.digests = append(out.digests, sha256.Sum256([]byte(fmt.Sprintf("%+v", *prov))))
	}
	out.quality["physical_qubits"] = float64(qubits)
	// A provision's space-time volume: the farm's physical qubits held
	// for one batch latency.
	out.quality["volume_geomean"] = geomean(vols)
	return out, nil
}

func (w *planProvision) teardown() {}

func checkProvision(p *plan.Provision) error {
	if p.OutputError > p.TargetPerState {
		return fmt.Errorf("output error %g above target %g", p.OutputError, p.TargetPerState)
	}
	if p.PhysicalQubits <= 0 || p.BatchLatency <= 0 || p.Factories <= 0 {
		return fmt.Errorf("degenerate provision %+v", *p)
	}
	return nil
}

// planLayers times the three layers plan.Plan calls — bravyi.Build,
// the cost model's critical path and the farm simulation — by calling
// them directly, after the pass's timed span: the first two on each
// block size's candidate factory (the shallowest depth that meets the
// target within the module cap, the one the planner prices), the third
// once on the chosen provision's farm at the scale the planner sizes
// buffers at (fluid-scaled to at most 64 factories, 30 batch latencies
// capped at 300000 cycles). The spans time the layers, not the
// planner's use of them: a planner change that calls a layer less
// often moves plan.s but not the layer times.
func planLayers(tr *tracer, app int64, req plan.Requirements, prov *plan.Provision) error {
	root := tr.root(spanPlanLayers, app)
	defer root.end()
	target := req.ErrorBudget / req.TCount
	for _, k := range req.CandidateKs {
		for levels := 1; levels <= req.MaxLevels; levels++ {
			p := bravyi.Params{K: k, Levels: levels, Reuse: levels >= 2, Barriers: true}
			if errs := req.Errors.RoundErrors(p); errs[len(errs)-1] > target {
				continue
			}
			if p.TotalModules() <= req.MaxModules {
				var f *bravyi.Factory
				var err error
				root.do(spanPlanBuild, func() { f, err = bravyi.Build(p) })
				if err != nil {
					return err
				}
				root.do(spanPlanCritical, func() { resource.DefaultCost().CriticalPath(f.Circuit) })
			}
			break
		}
	}
	scale := (prov.Factories + 63) / 64
	cfg := system.Config{
		FactoryLatency: prov.BatchLatency, BatchSize: prov.Params.Capacity(), SuccessProb: prov.SuccessProb,
		DemandRate: req.DemandRate / float64(scale), Factories: (prov.Factories + scale - 1) / scale,
		BufferSize: max(prov.BufferSize/scale, 1),
		Cycles:     max(min(30*prov.BatchLatency, 300_000), 10*prov.BatchLatency), Seed: 1,
	}
	var err error
	root.do(spanPlanSystemSim, func() { _, err = system.Simulate(cfg) })
	return err
}
