package montecarlo

import (
	"math"
	"testing"
	"testing/quick"

	"magicstate/internal/bravyi"
	"magicstate/internal/resource"
)

func params(k, l int) bravyi.Params {
	return bravyi.Params{K: k, Levels: l, Barriers: true}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Params: params(0, 1)}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(Config{Params: params(2, 1), Trials: -5}); err == nil {
		t.Error("negative trials accepted")
	}
	if _, err := Run(Config{Params: params(2, 2), Reserve: []int{1}}); err == nil {
		t.Error("reserve round mismatch accepted")
	}
	if _, err := Run(Config{Params: params(2, 1), Reserve: []int{-1}}); err == nil {
		t.Error("negative reserve accepted")
	}
}

func TestRunPerfectFidelityYieldsFullCapacity(t *testing.T) {
	cfg := Config{
		Params: params(2, 2),
		Errors: resource.ErrorModel{PhysError: 1e-9, InjectError: 1e-9, Threshold: 1e-2},
		Trials: 200,
		Seed:   1,
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capn := cfg.Params.Capacity()
	if sum.FullYieldRate != 1 {
		t.Errorf("FullYieldRate = %g, want 1", sum.FullYieldRate)
	}
	if sum.MeanOutputs != float64(capn) {
		t.Errorf("MeanOutputs = %g, want %d", sum.MeanOutputs, capn)
	}
	if sum.MeanFailures != 0 {
		t.Errorf("MeanFailures = %g, want 0", sum.MeanFailures)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := Config{Params: params(2, 2), Trials: 500, Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanOutputs != b.MeanOutputs || a.FullYieldRate != b.FullYieldRate {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunConvergesToAnalyticFullYield(t *testing.T) {
	cfg := Config{Params: params(2, 2), Trials: 20000, Seed: 7}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := AnalyticFullYield(cfg.Params, resource.DefaultError())
	if math.Abs(sum.FullYieldRate-want) > 0.02 {
		t.Errorf("FullYieldRate = %g, analytic %g", sum.FullYieldRate, want)
	}
}

func TestAnalyticFullYieldMatchesResourceModel(t *testing.T) {
	for _, p := range []bravyi.Params{params(2, 1), params(2, 2), params(4, 2)} {
		em := resource.DefaultError()
		yield := AnalyticFullYield(p, em)
		runs := resource.ExpectedRunsPerSuccess(p, em)
		if yield <= 0 {
			t.Fatalf("k=%d L=%d: zero analytic yield", p.K, p.Levels)
		}
		if got := 1 / yield; math.Abs(got-runs)/runs > 1e-9 {
			t.Errorf("k=%d L=%d: 1/yield = %g, ExpectedRunsPerSuccess = %g", p.K, p.Levels, got, runs)
		}
	}
}

func TestCheckpointsNeverIncreaseYield(t *testing.T) {
	base := Config{Params: params(2, 2), Trials: 5000, Seed: 11}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ck := base
	ck.Checkpoints = true
	checked, err := Run(ck)
	if err != nil {
		t.Fatal(err)
	}
	if checked.MeanOutputs > plain.MeanOutputs+0.1 {
		t.Errorf("checkpoints increased mean outputs: %g > %g", checked.MeanOutputs, plain.MeanOutputs)
	}
	if checked.MeanGroupsDiscarded == 0 {
		t.Error("checkpoints never discarded a group at this error rate")
	}
}

func TestReserveImprovesFullYield(t *testing.T) {
	// Single-level, single-module factory at a lossy working point: a
	// 2-module reserve triples the chances of landing one good module.
	errs := resource.ErrorModel{PhysError: 1e-3, InjectError: 2e-2, Threshold: 1e-2}
	base := Config{Params: params(2, 1), Errors: errs, Trials: 8000, Seed: 3}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withReserve := base
	withReserve.Reserve = []int{2}
	boosted, err := Run(withReserve)
	if err != nil {
		t.Fatal(err)
	}
	if boosted.FullYieldRate <= plain.FullYieldRate {
		t.Errorf("reserve did not improve yield: %g <= %g", boosted.FullYieldRate, plain.FullYieldRate)
	}
	ps := 1 - float64(8+3*2)*errs.InjectError
	want := 1 - math.Pow(1-ps, 3)
	if math.Abs(boosted.FullYieldRate-want) > 0.03 {
		t.Errorf("reserved FullYieldRate = %g, analytic %g", boosted.FullYieldRate, want)
	}
}

func TestHistogramAccounting(t *testing.T) {
	cfg := Config{Params: params(2, 2), Trials: 3000, Seed: 5}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for n, c := range sum.Outputs {
		total += c
		if c > 0 && n%cfg.Params.K != 0 {
			t.Errorf("delivered %d states, not a multiple of K=%d", n, cfg.Params.K)
		}
	}
	if total != cfg.Trials {
		t.Errorf("histogram sums to %d, want %d trials", total, cfg.Trials)
	}
}

func TestPartialYieldAppearsAtLossyWorkingPoints(t *testing.T) {
	errs := resource.ErrorModel{PhysError: 1e-3, InjectError: 1.5e-2, Threshold: 1e-2}
	cfg := Config{Params: params(2, 2), Errors: errs, Trials: 5000, Seed: 9}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial := 0
	capn := cfg.Params.Capacity()
	for n, c := range sum.Outputs {
		if n > 0 && n < capn {
			partial += c
		}
	}
	if partial == 0 {
		t.Error("no partial-yield runs at a lossy working point")
	}
	if sum.ExpectedRawPerState <= float64(cfg.Params.Inputs())/float64(capn) {
		t.Errorf("ExpectedRawPerState = %g does not exceed the lossless floor", sum.ExpectedRawPerState)
	}
}

func TestZeroYieldDominatesAtExtremeError(t *testing.T) {
	errs := resource.ErrorModel{PhysError: 1e-3, InjectError: 0.08, Threshold: 1e-2}
	cfg := Config{Params: params(2, 2), Errors: errs, Trials: 500, Seed: 13}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ZeroYieldRate < 0.9 {
		t.Errorf("ZeroYieldRate = %g, want near 1 at eps=0.08", sum.ZeroYieldRate)
	}
	if sum.ExpectedRunsPerFull < 1e6 {
		t.Errorf("ExpectedRunsPerFull = %g, want sentinel-large", sum.ExpectedRunsPerFull)
	}
}

// Property: aggregate invariants hold for arbitrary seeds and small
// factories — histogram mass equals trials, rates live in [0,1], mean
// outputs never exceed capacity.
func TestRunPropertyInvariants(t *testing.T) {
	f := func(seed int64, kRaw, lRaw uint8) bool {
		k := int(kRaw%3) + 1
		l := int(lRaw%2) + 1
		cfg := Config{Params: params(k, l), Trials: 300, Seed: seed}
		sum, err := Run(cfg)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range sum.Outputs {
			total += c
		}
		if total != cfg.Trials {
			return false
		}
		if sum.FullYieldRate < 0 || sum.FullYieldRate > 1 ||
			sum.ZeroYieldRate < 0 || sum.ZeroYieldRate > 1 {
			return false
		}
		return sum.MeanOutputs <= float64(cfg.Params.Capacity())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTimeToStatesValidation(t *testing.T) {
	cfg := Config{Params: params(2, 1), Trials: 100, Seed: 1}
	if _, err := TimeToStates(cfg, 0, 100); err == nil {
		t.Error("target=0 accepted")
	}
	if _, err := TimeToStates(cfg, 4, 0); err == nil {
		t.Error("latency=0 accepted")
	}
	if _, err := TimeToStates(Config{Params: params(0, 1)}, 4, 100); err == nil {
		t.Error("bad params accepted")
	}
}

func TestTimeToStatesPerfectFidelity(t *testing.T) {
	cfg := Config{
		Params: params(2, 2),
		Errors: resource.ErrorModel{PhysError: 1e-9, InjectError: 1e-9, Threshold: 1e-2},
		Trials: 50, Seed: 1,
	}
	// Capacity 4 per batch at perfect fidelity: 10 states need 3 batches.
	sum, err := TimeToStates(cfg, 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanBatches != 3 {
		t.Errorf("mean batches = %g, want exactly 3", sum.MeanBatches)
	}
	if sum.P50 != 1500 || sum.P99 != 1500 {
		t.Errorf("percentiles %d/%d, want 1500 cycles flat", sum.P50, sum.P99)
	}
}

func TestTimeToStatesPercentilesOrdered(t *testing.T) {
	cfg := Config{Params: params(2, 2), Trials: 3000, Seed: 5}
	sum, err := TimeToStates(cfg, 20, 700)
	if err != nil {
		t.Fatal(err)
	}
	if !(sum.P50 <= sum.P90 && sum.P90 <= sum.P99) {
		t.Errorf("percentiles unordered: %d %d %d", sum.P50, sum.P90, sum.P99)
	}
	// Lossy yields mean more batches than the lossless floor of 5.
	if sum.MeanBatches <= 5 {
		t.Errorf("mean batches %g at lossless floor despite failures", sum.MeanBatches)
	}
	if sum.MeanCycles != sum.MeanBatches*700 {
		t.Errorf("cycles %g inconsistent with batches %g", sum.MeanCycles, sum.MeanBatches)
	}
}

func TestTimeToStatesUnreachable(t *testing.T) {
	cfg := Config{
		Params: params(2, 2),
		Errors: resource.ErrorModel{PhysError: 1e-3, InjectError: 0.3, Threshold: 1e-2},
		Trials: 5, Seed: 1,
	}
	if _, err := TimeToStates(cfg, 4, 100); err == nil {
		t.Error("zero-yield target accepted")
	}
}
