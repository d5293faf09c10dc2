package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"magicstate/internal/bravyi"
	"magicstate/internal/resource"
	"magicstate/internal/sweep"
	"magicstate/internal/system"
)

func baseReq() Requirements {
	return Requirements{
		TCount:      1e9,
		ErrorBudget: 0.01,
		DemandRate:  0.02,
	}
}

func TestPlanMeetsTarget(t *testing.T) {
	prov, err := Plan(baseReq())
	if err != nil {
		t.Fatal(err)
	}
	if prov.OutputError > prov.TargetPerState {
		t.Errorf("output error %g above target %g", prov.OutputError, prov.TargetPerState)
	}
	if prov.Factories < 1 || prov.BatchLatency <= 0 || prov.PhysicalQubits <= 0 {
		t.Errorf("degenerate provision: %+v", prov)
	}
	if prov.SuccessProb <= 0 || prov.SuccessProb > 1 {
		t.Errorf("success prob %g", prov.SuccessProb)
	}
	if prov.RawStates < prov.TCountLowerBound() {
		t.Errorf("raw states %g below lossless floor %g", prov.RawStates, prov.TCountLowerBound())
	}
	if !strings.Contains(prov.String(), "factories") {
		t.Error("String() missing farm size")
	}
}

// TCountLowerBound is a test helper: raw states can never be fewer than
// inputs/capacity per T gate.
func (p *Provision) TCountLowerBound() float64 {
	return 1e9 / float64(p.Params.Capacity()) * float64(p.Params.Inputs())
}

func TestPlanThroughputScaling(t *testing.T) {
	slow := baseReq()
	slow.DemandRate = 0.001
	fast := baseReq()
	fast.DemandRate = 0.1
	ps, err := Plan(slow)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Plan(fast)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Factories <= ps.Factories {
		t.Errorf("100x demand did not grow the farm: %d vs %d", pf.Factories, ps.Factories)
	}
}

func TestPlanTighterBudgetNeedsMoreLevels(t *testing.T) {
	// Targets of 1e-6 vs 1e-12 per state; tighter should need deeper
	// recursion. (Much tighter targets, e.g. 1e-15, are correctly
	// rejected: a 4-level factory's whole-batch success probability is
	// effectively zero under the first-order all-modules-pass model.)
	loose := baseReq()
	loose.TCount = 1e4
	tight := baseReq()
	tight.TCount = 1e10
	pl, err := Plan(loose)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Plan(tight)
	if err != nil {
		t.Fatal(err)
	}
	if pt.OutputError >= pl.TargetPerState {
		t.Errorf("tight plan error %g not below loose target %g", pt.OutputError, pl.TargetPerState)
	}
	if pt.Params.Levels < pl.Params.Levels {
		t.Errorf("tighter budget used fewer levels: %d vs %d", pt.Params.Levels, pl.Params.Levels)
	}
}

func TestPlanValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(*Requirements)
	}{
		{"TCount=0", func(r *Requirements) { r.TCount = 0 }},
		{"TCount=NaN", func(r *Requirements) { r.TCount = nan }},
		{"ErrorBudget=2", func(r *Requirements) { r.ErrorBudget = 2 }},
		{"ErrorBudget=NaN", func(r *Requirements) { r.ErrorBudget = nan }},
		{"DemandRate=0", func(r *Requirements) { r.DemandRate = 0 }},
		{"DemandRate=NaN", func(r *Requirements) { r.DemandRate = nan }},
		{"DemandRate=+Inf", func(r *Requirements) { r.DemandRate = inf }},
		{"DemandRate=-Inf", func(r *Requirements) { r.DemandRate = -inf }},
		{"Headroom<1", func(r *Requirements) { r.Headroom = 0.5 }},
		{"Headroom=NaN", func(r *Requirements) { r.Headroom = nan }},
		{"Headroom=+Inf", func(r *Requirements) { r.Headroom = inf }},
		{"Headroom=-Inf", func(r *Requirements) { r.Headroom = -inf }},
	}
	for _, tc := range cases {
		req := baseReq()
		tc.set(&req)
		prov, err := Plan(req)
		if err == nil {
			t.Errorf("%s accepted: %+v", tc.name, *prov)
			continue
		}
		if !strings.HasPrefix(err.Error(), "plan: ") {
			t.Errorf("%s rejected outside the planner: %q", tc.name, err)
		}
	}
}

func TestPlanUnreachableTarget(t *testing.T) {
	req := baseReq()
	// Inject error so hot that distillation diverges for every k.
	req.Errors = resource.ErrorModel{PhysError: 1e-3, InjectError: 0.2, Threshold: 1e-2}
	_, err := Plan(req)
	if err == nil {
		t.Fatal("divergent working point produced a plan")
	}
	if !strings.Contains(err.Error(), "no candidate reaches per-state error") {
		t.Errorf("unreachable target reported as %q", err)
	}
}

// TestPlanUnattainableTarget pins a working point where K=3 L=3 reaches
// 3.9e-12, under the 5e-12 target, but needs about 7e13 factories, whose
// qubits an int cannot count, and K=5 does no better. The error must say
// that candidates reach the target, not that none does.
func TestPlanUnattainableTarget(t *testing.T) {
	req := Requirements{TCount: 1e11, ErrorBudget: 0.5, DemandRate: 9.23, Headroom: 1.27,
		CandidateKs: []int{3, 5}, MaxModules: 20000}
	prov, err := Plan(req)
	if err == nil {
		t.Fatalf("unattainable working point produced a plan: %+v", *prov)
	}
	if msg := err.Error(); !strings.Contains(msg, "candidates reach per-state error 5e-12") ||
		!strings.Contains(msg, "none is attainable") {
		t.Errorf("unattainable target reported as %q", msg)
	}
}

func TestPlanUsesCandidateKs(t *testing.T) {
	req := baseReq()
	req.CandidateKs = []int{2}
	prov, err := Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if prov.Params.K != 2 {
		t.Errorf("planner chose K=%d outside the candidate set", prov.Params.K)
	}
}

// Property: for any sane demand and budget, the plan meets its error
// target with a positive farm, and physical qubits scale with factories.
func TestPlanPropertySound(t *testing.T) {
	f := func(tExp, dExp uint8) bool {
		tc := math10(int(tExp%8) + 4)     // 1e4 .. 1e11
		dr := 1.0 / math10(int(dExp%3)+1) // 0.1 .. 0.001
		req := Requirements{TCount: tc, ErrorBudget: 0.01, DemandRate: dr}
		prov, err := Plan(req)
		if err != nil {
			return false
		}
		if prov.OutputError > prov.TargetPerState {
			return false
		}
		return prov.Factories >= 1 && prov.PhysicalQubits >= prov.Factories
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func math10(e int) float64 {
	r := 1.0
	for i := 0; i < e; i++ {
		r *= 10
	}
	return r
}

// TestPlanProvisionsUnchanged pins the planner's full answer for the
// benchmark's four application sizes at fixed demand rates, plus the
// K=2 candidate that loses to K=1 at T = 1e7. The literals
// were captured from the DAG-based critical-path implementation, so any
// pricing change that is not output-identical fails here.
func TestPlanProvisionsUnchanged(t *testing.T) {
	l3 := bravyi.Params{K: 1, Levels: 3, Reuse: true, Barriers: true}
	cases := []struct {
		tcount, rate float64
		ks           []int
		want         Provision
	}{
		{1e7, 0.02, nil, Provision{Params: l3, TargetPerState: 1e-09, OutputError: 6.400000000000001e-15,
			BatchLatency: 720, SuccessProb: 0.001051939548227095, Factories: 16427, BufferSize: 257,
			PhysicalQubits: 7542654174, RunCycles: 5e+08, RawStates: 1.2652818332034617e+13}},
		{1e8, 0.021, nil, Provision{Params: l3, TargetPerState: 1e-10, OutputError: 6.400000000000001e-15,
			BatchLatency: 720, SuccessProb: 0.001051939548227095, Factories: 17249, BufferSize: 270,
			PhysicalQubits: 7920085338, RunCycles: 4.761904761904761e+09, RawStates: 1.2652818332034617e+14}},
		{1e9, 0.022, nil, Provision{Params: l3, TargetPerState: 1.0000000000000001e-11, OutputError: 6.400000000000001e-15,
			BatchLatency: 720, SuccessProb: 0.001051939548227095, Factories: 18070, BufferSize: 283,
			PhysicalQubits: 8297057340, RunCycles: 4.5454545454545456e+10, RawStates: 1.2652818332034618e+15}},
		{1e10, 0.023, nil, Provision{Params: l3, TargetPerState: 1e-12, OutputError: 6.400000000000001e-15,
			BatchLatency: 720, SuccessProb: 0.001051939548227095, Factories: 18891, BufferSize: 296,
			PhysicalQubits: 8674029342, RunCycles: 4.3478260869565216e+11, RawStates: 1.2652818332034616e+16}},
		{1e7, 0.02, []int{2}, Provision{Params: bravyi.Params{K: 2, Levels: 3, Reuse: true, Barriers: true},
			TargetPerState: 1e-09, OutputError: 3.216964843750002e-13, BatchLatency: 840,
			SuccessProb: 6.206168257965763e-07, Factories: 4060477, BufferSize: 507560,
			PhysicalQubits: 3284747232012, RunCycles: 5e+08, RawStates: 5.526759600172803e+15}},
	}
	for _, tc := range cases {
		req := Requirements{TCount: tc.tcount, ErrorBudget: 0.01, DemandRate: tc.rate, CandidateKs: tc.ks}
		prov, err := Plan(req)
		if err != nil {
			t.Fatalf("T=%g Ks=%v: %v", tc.tcount, tc.ks, err)
		}
		if !reflect.DeepEqual(*prov, tc.want) {
			t.Errorf("T=%g Ks=%v:\n got %+v\nwant %+v", tc.tcount, tc.ks, *prov, tc.want)
		}
	}
}

// TestPlanHopelessCandidateOverflow pins a working point whose K=2 L=3
// candidate needs about 9e12 runs per success: the farm it asks for has
// more physical qubits than an int counts. That candidate must be
// unattainable, not a wrapped negative cost that wins the reduction.
func TestPlanHopelessCandidateOverflow(t *testing.T) {
	req := Requirements{TCount: 1e8, ErrorBudget: 0.01, DemandRate: 0.02,
		Errors: resource.ErrorModel{PhysError: 1e-3, InjectError: 0.01, Threshold: 1e-2}}
	done := make(chan struct{})
	var prov *Provision
	var err error
	go func() {
		defer close(done)
		prov, err = Plan(req)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Plan did not return")
	}
	if err != nil {
		t.Fatal(err)
	}
	if prov.PhysicalQubits <= 0 || prov.Factories <= 0 || prov.BufferSize <= 0 {
		t.Fatalf("degenerate provision %+v", *prov)
	}
	if prov.Params.K == 2 && prov.Params.Levels == 3 {
		t.Fatalf("the overflowing K=2 L=3 candidate won: %+v", *prov)
	}
}

// TestSizeBufferRejectsUncountableBuffer drives sizeBuffer's safety
// check, which pricing never reaches: a farm fluid-scaled by 2^46 whose
// buffer never gets stalls under 1% settles on 128 batches, more states
// than an int counts once scaled back up. Sizing must fail with a plan
// error, not hand back an unsized provision.
func TestSizeBufferRejectsUncountableBuffer(t *testing.T) {
	p := bravyi.Params{K: 10, Levels: 4, Reuse: true, Barriers: true}
	prov := &Provision{Params: p, BatchLatency: 100, SuccessProb: 1, Factories: 1 << 52}
	req := Requirements{DemandRate: 1 << 60}
	sim, scale := sizingSim(req, prov)
	if scale != 1<<46 || sim.Factories != 64 {
		t.Fatalf("scale %d, %d simulated factories; want 2^46 and 64", scale, sim.Factories)
	}
	err := sizeBuffer(req, prov)
	if err == nil || !strings.HasPrefix(err.Error(), "plan: ") || !strings.Contains(err.Error(), "int counts") {
		t.Fatalf("uncountable buffer: err %v, buffer %d; want a plan error", err, prov.BufferSize)
	}
	if prov.BufferSize != 0 {
		t.Fatalf("uncountable buffer set to %d", prov.BufferSize)
	}
}

// The eager planner below is the planner before buffer sizing moved
// after the reduction: every candidate that reaches the target runs its
// own buffer-sizing simulations. It is the reference Plan must match,
// provision for provision and error for error.

func eagerPlan(req Requirements) (*Provision, error) {
	if err := req.fill(); err != nil {
		return nil, err
	}
	target := req.ErrorBudget / req.TCount
	eng := sweep.New(sweep.Options{Workers: req.Workers})
	candidates, err := sweep.Map(context.Background(), eng, req.CandidateKs,
		func(_ int, k int) (kPlan, error) { return eagerPlanForK(req, k, target) })
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
		return best, nil
	case reached:
		return nil, fmt.Errorf("plan: candidates reach per-state error %g from inject error %g, but none is attainable "+
			"(1e17 or more runs per success, 2^53 or more factories, too many qubits to count, or over %d modules)",
			target, req.Errors.InjectError, req.MaxModules)
	}
	return nil, fmt.Errorf("plan: no candidate reaches per-state error %g from inject error %g",
		target, req.Errors.InjectError)
}

func eagerPlanForK(req Requirements, k int, target float64) (kPlan, error) {
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
			return res, nil
		}
		prov, err := eagerProvisionFor(req, p, target, out)
		if err != nil {
			return res, err
		}
		if prov == nil {
			continue
		}
		res.prov = prov
		return res, nil
	}
	return res, nil
}

func eagerProvisionFor(req Requirements, p bravyi.Params, target, out float64) (*Provision, error) {
	latency, err := resource.DefaultCost().FactoryCriticalPath(p)
	if err != nil {
		return nil, err
	}
	runs := resource.ExpectedRunsPerSuccess(p, req.Errors)
	if runs >= 1e17 {
		return nil, nil
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
		return nil, nil
	}
	cfg.Factories = factories

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
		return nil, nil
	}
	buffer *= scale

	return &Provision{
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
	}, nil
}

// unit folds any float into [0,1), NaN and the infinities to 0, so that
// fuzzed inputs land in the ranges drawnReq spans.
func unit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	x = math.Abs(x)
	return x - math.Floor(x)
}

// drawnReq maps raw draws onto the requirements the differential check
// spans: TCount 1e3–1e15, ErrorBudget 1e-3–0.5, DemandRate 1e-4–1,
// Headroom 1–3, up to six candidate Ks from 1–10 (none: the defaults),
// MaxLevels 1–4, MaxModules 1–1e6 (log-uniform), the default error model or the hot
// one of TestPlanHopelessCandidateOverflow, and 1 or 2 workers.
func drawnReq(tc, budget, rate, headroom float64, ks []byte, levels uint8, modules float64, hot, two bool) Requirements {
	req := Requirements{
		TCount:      1e3 * math.Pow(1e12, unit(tc)),
		ErrorBudget: 1e-3 * math.Pow(500, unit(budget)),
		DemandRate:  1e-4 * math.Pow(1e4, unit(rate)),
		Headroom:    1 + 2*unit(headroom),
		MaxLevels:   int(levels%4) + 1,
		MaxModules:  int(math.Pow(1e6, unit(modules))),
		Workers:     1,
	}
	for i := 0; i < len(ks) && i < 6; i++ {
		req.CandidateKs = append(req.CandidateKs, int(ks[i]%10)+1)
	}
	if hot {
		req.Errors = resource.ErrorModel{PhysError: 1e-3, InjectError: 0.01, Threshold: 1e-2}
	}
	if two {
		req.Workers = 2
	}
	return req
}

// checkMatchesEager compares Plan against the eager reference: the whole
// provision and the error text.
func checkMatchesEager(t *testing.T, req Requirements) {
	t.Helper()
	got, gotErr := Plan(req)
	want, wantErr := eagerPlan(req)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%+v: error %v, eager %v", req, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v:\n got %+v\nwant %+v", req, got, want)
	}
}

// TestPlanMatchesEager is FuzzPlanMatchesEager's always-run table: a
// fixed-seed draw of requirements across the fuzz ranges.
func TestPlanMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		ks := make([]byte, rng.Intn(7))
		rng.Read(ks)
		checkMatchesEager(t, drawnReq(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			ks, uint8(rng.Intn(4)), rng.Float64(), rng.Intn(2) == 1, rng.Intn(2) == 1))
	}
}

func FuzzPlanMatchesEager(f *testing.F) {
	f.Add(0.3334, 0.3705, 0.5753, 0.1, []byte{}, uint8(3), 0.6, false, false)       // msfbench's T = 1e7
	f.Add(0.4167, 0.3705, 0.5753, 0.1, []byte{1, 5}, uint8(2), 0.7168, false, true) // K = 2 and 6, 20000 modules
	f.Add(0.4167, 0.3705, 0.5753, 0.1, []byte{}, uint8(3), 0.6, true, false)        // TestPlanHopelessCandidateOverflow
	f.Add(0.9999, 0.9999, 0.9999, 0.9999, []byte{9, 9, 9}, uint8(3), 0.9999, true, true)
	f.Fuzz(func(t *testing.T, tc, budget, rate, headroom float64, ks []byte, levels uint8, modules float64, hot, two bool) {
		checkMatchesEager(t, drawnReq(tc, budget, rate, headroom, ks, levels, modules, hot, two))
	})
}
