package plan

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"magicstate/internal/bravyi"
	"magicstate/internal/resource"
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
	bad := baseReq()
	bad.TCount = 0
	if _, err := Plan(bad); err == nil {
		t.Error("TCount=0 accepted")
	}
	bad = baseReq()
	bad.ErrorBudget = 2
	if _, err := Plan(bad); err == nil {
		t.Error("ErrorBudget=2 accepted")
	}
	bad = baseReq()
	bad.DemandRate = 0
	if _, err := Plan(bad); err == nil {
		t.Error("DemandRate=0 accepted")
	}
	bad = baseReq()
	bad.Headroom = 0.5
	if _, err := Plan(bad); err == nil {
		t.Error("Headroom<1 accepted")
	}
}

func TestPlanUnreachableTarget(t *testing.T) {
	req := baseReq()
	// Inject error so hot that distillation diverges for every k.
	req.Errors = resource.ErrorModel{PhysError: 1e-3, InjectError: 0.2, Threshold: 1e-2}
	if _, err := Plan(req); err == nil {
		t.Error("divergent working point produced a plan")
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
