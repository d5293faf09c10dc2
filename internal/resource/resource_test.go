package resource

import (
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
)

func TestGateCycles(t *testing.T) {
	cm := DefaultCost()
	cases := []struct {
		g    circuit.Gate
		want int
	}{
		{circuit.Gate{Kind: circuit.KindH, Targets: []circuit.Qubit{0}}, cm.H},
		{circuit.Gate{Kind: circuit.KindCNOT, Control: 0, Targets: []circuit.Qubit{1}}, cm.CNOT},
		{circuit.Gate{Kind: circuit.KindInjectT, Control: 0, Targets: []circuit.Qubit{1}}, cm.Inject},
		{circuit.Gate{Kind: circuit.KindS, Targets: []circuit.Qubit{0}}, 2 * cm.Inject},
		{circuit.Gate{Kind: circuit.KindBarrier}, 0},
		{circuit.Gate{Kind: circuit.KindMove, Control: 0, Dest: 1}, cm.Move},
		{circuit.Gate{Kind: circuit.KindMeasX, Targets: []circuit.Qubit{0}}, cm.Meas},
	}
	for _, c := range cases {
		if got := cm.GateCycles(&c.g); got != c.want {
			t.Errorf("%v cycles = %d, want %d", c.g.Kind, got, c.want)
		}
	}
}

func TestCriticalPathSimpleChain(t *testing.T) {
	cm := DefaultCost()
	c := circuit.New(2)
	c.H(0)
	c.CNOT(0, 1)
	c.MeasX(1)
	want := cm.H + cm.CNOT + cm.Meas
	if got := cm.CriticalPath(c); got != want {
		t.Errorf("critical path = %d, want %d", got, want)
	}
}

func TestCriticalPathSingleLevelCalibration(t *testing.T) {
	// Table I reports critical volumes 6.28e3 (K=2) and 1.12e5 (K=24).
	// With area = 5k+13 the implied critical latencies are ~273 and ~842
	// cycles. Check our calibration lands within a factor of ~1.5.
	cm := DefaultCost()
	for _, tc := range []struct {
		k              int
		wantLo, wantHi int
	}{
		{2, 180, 410},
		{24, 560, 1300},
	} {
		f, err := bravyi.Build(bravyi.Params{K: tc.k, Levels: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := cm.CriticalPath(f.Circuit)
		if got < tc.wantLo || got > tc.wantHi {
			t.Errorf("k=%d critical path = %d, want in [%d,%d]", tc.k, got, tc.wantLo, tc.wantHi)
		}
	}
}

func TestCriticalPathGrowsWithLevels(t *testing.T) {
	cm := DefaultCost()
	f1, _ := bravyi.Build(bravyi.Params{K: 2, Levels: 1})
	f2, _ := bravyi.Build(bravyi.Params{K: 2, Levels: 2, Barriers: true})
	c1 := cm.CriticalPath(f1.Circuit)
	c2 := cm.CriticalPath(f2.Circuit)
	if float64(c2) < 1.8*float64(c1) {
		t.Errorf("two-level critical path %d should be ~2x single level %d", c2, c1)
	}
}

func TestLogicalErrorDecreasesWithDistance(t *testing.T) {
	em := DefaultError()
	prev := 1.0
	for d := 3; d <= 25; d += 2 {
		pl := em.LogicalError(d)
		if pl >= prev {
			t.Fatalf("logical error not monotone at d=%d: %v >= %v", d, pl, prev)
		}
		prev = pl
	}
	if em.LogicalError(0) != 1 {
		t.Error("d<1 should return 1")
	}
}

func TestMinDistanceFor(t *testing.T) {
	em := DefaultError()
	d := em.MinDistanceFor(1e-10)
	if d%2 == 0 || d < 3 {
		t.Errorf("distance %d should be odd and >= 3", d)
	}
	if em.LogicalError(d) > 1e-10 {
		t.Errorf("d=%d does not meet target", d)
	}
	if d > 3 && em.LogicalError(d-2) <= 1e-10 {
		t.Errorf("d=%d is not minimal", d)
	}
	if em.MinDistanceFor(0) != 99 {
		t.Error("unreachable target should cap at 99")
	}
}

func TestRoundErrorsSquareEachRound(t *testing.T) {
	em := DefaultError()
	p := bravyi.Params{K: 2, Levels: 2}
	errs := em.RoundErrors(p)
	if len(errs) != 3 {
		t.Fatalf("want 3 entries, got %d", len(errs))
	}
	if errs[0] != em.InjectError {
		t.Error("round 1 input should be InjectError")
	}
	want1 := 7 * errs[0] * errs[0] // (1+3k), k=2
	if errs[1] != want1 {
		t.Errorf("after round 1: %v, want %v", errs[1], want1)
	}
	if errs[2] >= errs[1] {
		t.Error("error must shrink each round")
	}
}

func TestBalancedDistancesIncrease(t *testing.T) {
	em := DefaultError()
	p := bravyi.Params{K: 4, Levels: 2}
	ds := em.BalancedDistances(p)
	if len(ds) != 2 {
		t.Fatalf("want 2 distances")
	}
	if ds[1] <= ds[0] {
		t.Errorf("later rounds need larger distance: %v", ds)
	}
}

func TestPhysicalQubitsPerRound(t *testing.T) {
	em := DefaultError()
	p := bravyi.Params{K: 2, Levels: 2}
	qs := em.PhysicalQubitsPerRound(p)
	ds := em.BalancedDistances(p)
	want0 := 14 * 23 * ds[0] * ds[0]
	if qs[0] != want0 {
		t.Errorf("round 1 physical qubits = %d, want %d", qs[0], want0)
	}
	// Early rounds dominate physical area because module count shrinks
	// geometrically faster than d^2 grows at these parameters.
	if qs[1] >= qs[0] {
		t.Logf("note: round 2 (%d) >= round 1 (%d) physical qubits", qs[1], qs[0])
	}
}

func TestVolume(t *testing.T) {
	v := Volume{Area: 100, Latency: 50}
	if v.SpaceTime() != 5000 {
		t.Error("space-time broken")
	}
}

func TestExpectedRunsPerSuccess(t *testing.T) {
	em := DefaultError()
	p := bravyi.Params{K: 2, Levels: 1}
	runs := ExpectedRunsPerSuccess(p, em)
	if runs <= 1 {
		t.Errorf("expected runs must exceed 1, got %v", runs)
	}
	// With k=2 and eps=5e-3 per-module success is 1-14*5e-3 = 0.93.
	if runs < 1.0/0.94 || runs > 1.0/0.92 {
		t.Errorf("runs = %v, want ~1/0.93", runs)
	}
}
