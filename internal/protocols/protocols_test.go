package protocols

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"magicstate/internal/circuit"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
)

func TestRM14ChecksStructure(t *testing.T) {
	checks := rm14Checks()
	for j, ck := range checks {
		if len(ck) != 8 {
			t.Errorf("check %d covers %d positions, want 8", j, len(ck))
		}
		for _, i := range ck {
			if (i+1)&(1<<j) == 0 {
				t.Errorf("check %d contains position %d whose bit %d is clear", j, i+1, j)
			}
		}
	}
	// Every position is covered by exactly popcount(position) checks.
	for i := 0; i < 15; i++ {
		pos := i + 1
		want := 0
		for b := 0; b < 4; b++ {
			if pos&(1<<b) != 0 {
				want++
			}
		}
		got := 0
		for _, ck := range checks {
			for _, p := range ck {
				if p == i {
					got++
				}
			}
		}
		if got != want {
			t.Errorf("position %d covered by %d checks, want %d", pos, got, want)
		}
	}
}

func TestSeedIndexIsPowerOfTwoPosition(t *testing.T) {
	for j := 0; j < 4; j++ {
		if got, want := seedIndex(j)+1, 1<<j; got != want {
			t.Errorf("seedIndex(%d)+1 = %d, want %d", j, got, want)
		}
	}
}

func TestCircuit15to1Structure(t *testing.T) {
	c := Circuit15to1()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := c.NumQubits, (BravyiKitaev15{}).Qubits(); got != want {
		t.Errorf("NumQubits = %d, want Qubits() = %d", got, want)
	}
	if got := c.CountKind(circuit.KindInjectT); got != 15 {
		t.Errorf("injectT count = %d, want 15", got)
	}
	if got := c.CountKind(circuit.KindMeasX); got != 15 {
		t.Errorf("measx count = %d, want 15", got)
	}
	if got := c.CountKind(circuit.KindCXX); got != 10 {
		t.Errorf("cxx count = %d, want 10 (4 encode + logical + mirror)", got)
	}
	if got := c.CountKind(circuit.KindH); got != 5 {
		t.Errorf("h count = %d, want 5 (4 seeds + out)", got)
	}
}

func TestCircuit15to1InteractionGraphConnected(t *testing.T) {
	c := Circuit15to1()
	g := graph.FromCircuit(c)
	_, count := g.Components()
	if count != 1 {
		t.Errorf("interaction graph has %d components, want 1", count)
	}
}

func TestCircuit15to1Simulates(t *testing.T) {
	c := Circuit15to1()
	pl := layout.Random(c.NumQubits, rand.New(rand.NewSource(7)))
	res, err := mesh.Simulate(c, pl, mesh.Config{RecordPaths: true})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %d, want > 0", res.Latency)
	}
	if err := res.CheckNoOverlaps(); err != nil {
		t.Errorf("overlap invariant: %v", err)
	}
}

func TestBravyiKitaev15Model(t *testing.T) {
	p := BravyiKitaev15{}
	if p.Inputs() != 15 || p.Outputs() != 1 {
		t.Fatalf("in/out = %d/%d, want 15/1", p.Inputs(), p.Outputs())
	}
	eps := 1e-3
	if got, want := p.OutputError(eps), 35*eps*eps*eps; got != want {
		t.Errorf("OutputError = %g, want %g", got, want)
	}
	if got, want := p.SuccessProbability(eps), 1-15*eps; math.Abs(got-want) > 1e-12 {
		t.Errorf("SuccessProbability = %g, want %g", got, want)
	}
	if got := p.SuccessProbability(0.5); got != 0 {
		t.Errorf("SuccessProbability(0.5) = %g, want clamp to 0", got)
	}
}

func TestBravyiHaahModelMatchesClosedForms(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		p, err := NewBravyiHaah(k)
		if err != nil {
			t.Fatal(err)
		}
		if p.Inputs() != 3*k+8 || p.Outputs() != k || p.Qubits() != 5*k+13 {
			t.Errorf("k=%d: in/out/qubits = %d/%d/%d", k, p.Inputs(), p.Outputs(), p.Qubits())
		}
		eps := 2e-3
		if got, want := p.OutputError(eps), float64(1+3*k)*eps*eps; math.Abs(got-want) > 1e-15 {
			t.Errorf("k=%d OutputError = %g, want %g", k, got, want)
		}
		if got, want := p.SuccessProbability(eps), 1-float64(8+3*k)*eps; math.Abs(got-want) > 1e-12 {
			t.Errorf("k=%d SuccessProbability = %g, want %g", k, got, want)
		}
	}
}

func TestNewBravyiHaahRejectsBadK(t *testing.T) {
	if _, err := NewBravyiHaah(0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMultilevelComposition(t *testing.T) {
	base, _ := NewBravyiHaah(2)
	ml, err := NewMultilevel(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ml.Inputs(), 14*14; got != want {
		t.Errorf("Inputs = %d, want %d", got, want)
	}
	if got, want := ml.Outputs(), 4; got != want {
		t.Errorf("Outputs = %d, want %d", got, want)
	}
	eps := 5e-3
	manual := base.OutputError(base.OutputError(eps))
	if got := ml.OutputError(eps); math.Abs(got-manual) > 1e-18 {
		t.Errorf("OutputError = %g, want iterated %g", got, manual)
	}
	// Level 1 is the widest: 14 modules of 23 qubits vs level 2's 2x23.
	if got, want := ml.Qubits(), 14*base.Qubits(); got != want {
		t.Errorf("Qubits = %d, want widest level %d", got, want)
	}
}

func TestMultilevelSuccessProbability(t *testing.T) {
	base, _ := NewBravyiHaah(2)
	ml, _ := NewMultilevel(base, 2)
	eps := 1e-3
	// 14 level-1 modules at eps, 2 level-2 modules at the improved rate.
	want := math.Pow(base.SuccessProbability(eps), 14) *
		math.Pow(base.SuccessProbability(base.OutputError(eps)), 2)
	if got := ml.SuccessProbability(eps); math.Abs(got-want) > 1e-12 {
		t.Errorf("SuccessProbability = %g, want %g", got, want)
	}
}

func TestNewMultilevelRejectsBadArgs(t *testing.T) {
	base, _ := NewBravyiHaah(2)
	if _, err := NewMultilevel(nil, 1); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewMultilevel(base, 0); err == nil {
		t.Error("levels=0 accepted")
	}
}

func TestExpectedRawPerOutputDominatesIdeal(t *testing.T) {
	base, _ := NewBravyiHaah(4)
	eps := 5e-3
	if ideal, exp := RawPerOutput(base), ExpectedRawPerOutput(base, eps); exp < ideal {
		t.Errorf("expected raw %g < ideal %g", exp, ideal)
	}
}

func TestExpectedRawPerOutputInfiniteAtZeroSuccess(t *testing.T) {
	p := BravyiKitaev15{}
	if got := ExpectedRawPerOutput(p, 0.5); !math.IsInf(got, 1) {
		t.Errorf("ExpectedRawPerOutput at ps=0 = %g, want +Inf", got)
	}
}

func TestProvisionBravyiHaah(t *testing.T) {
	base, _ := NewBravyiHaah(2)
	eps := 5e-3
	plan, err := Provision(base, eps, 1e-8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// One level: 7*(5e-3)^2 = 1.75e-4. Two: 7*(1.75e-4)^2 ≈ 2.1e-7.
	// Three: ≈ 3.2e-13 <= 1e-8.
	if plan.Levels != 3 {
		t.Errorf("Levels = %d, want 3", plan.Levels)
	}
	if plan.OutputError > 1e-8 {
		t.Errorf("OutputError = %g, want <= 1e-8", plan.OutputError)
	}
	if plan.SuccessProbability <= 0 || plan.SuccessProbability > 1 {
		t.Errorf("SuccessProbability = %g out of (0,1]", plan.SuccessProbability)
	}
	if plan.ExpectedRawPerOutput < plan.RawPerOutput {
		t.Errorf("expected raw %g < ideal %g", plan.ExpectedRawPerOutput, plan.RawPerOutput)
	}
	if math.IsInf(plan.VolumeProxy, 1) || plan.VolumeProxy <= 0 {
		t.Errorf("VolumeProxy = %g", plan.VolumeProxy)
	}
}

func TestProvisionDetectsDivergence(t *testing.T) {
	base, _ := NewBravyiHaah(8) // suppresses only below eps = 1/25
	if _, err := Provision(base, 0.1, 1e-8, 8); err == nil {
		t.Error("divergent working point accepted")
	}
}

func TestProvisionRejectsBadRates(t *testing.T) {
	base, _ := NewBravyiHaah(2)
	if _, err := Provision(base, 0, 1e-8, 8); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Provision(base, 1e-3, 0, 8); err == nil {
		t.Error("target=0 accepted")
	}
}

func TestProvisionLevelCap(t *testing.T) {
	base, _ := NewBravyiHaah(2)
	if _, err := Provision(base, 5e-3, 1e-300, 2); err == nil {
		t.Error("unreachable target within cap accepted")
	}
}

func TestHaahHastingsModel(t *testing.T) {
	h := DefaultHaahHastings().AtWorkingPoint(1e-3)
	if h.Outputs() != 8 {
		t.Errorf("Outputs = %d, want 8", h.Outputs())
	}
	if h.Inputs() <= h.Outputs() {
		t.Errorf("Inputs = %d must exceed Outputs = %d", h.Inputs(), h.Outputs())
	}
	if h.Qubits() < 2*h.Outputs() {
		t.Errorf("Qubits = %d below 2k floor", h.Qubits())
	}
	eps := 1e-3
	if got := h.OutputError(eps); got >= eps {
		t.Errorf("OutputError %g does not suppress %g", got, eps)
	}
	if ps := h.SuccessProbability(eps); ps <= 0 || ps >= 1 {
		t.Errorf("SuccessProbability = %g out of (0,1)", ps)
	}
}

func TestHaahHastingsDefaultsOnZeroValue(t *testing.T) {
	var h HaahHastings
	if h.Outputs() != 1 {
		t.Errorf("zero-value Outputs = %d, want floor 1", h.Outputs())
	}
	if h.OutputError(1e-3) <= 0 {
		t.Error("zero-value OutputError not positive")
	}
}

// Property: every protocol in the default candidate set suppresses error
// for any working eps in (0, 0.01], and success probability stays in [0,1]
// and is non-increasing in eps.
func TestProtocolPropertySuppressionAndMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eps := rng.Float64()*0.009 + 1e-4
		for _, p := range DefaultCandidates(eps) {
			if out := p.OutputError(eps); out >= eps || out <= 0 {
				t.Logf("%s: OutputError(%g) = %g", p.Name(), eps, out)
				return false
			}
			ps1 := p.SuccessProbability(eps)
			ps2 := p.SuccessProbability(eps * 2)
			if ps1 < 0 || ps1 > 1 || ps2 > ps1 {
				t.Logf("%s: ps(%g)=%g ps(%g)=%g", p.Name(), eps, ps1, 2*eps, ps2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: multilevel input/output counts are exact powers and the
// composite error equals manual iteration for random k and L.
func TestMultilevelPropertyPowers(t *testing.T) {
	f := func(kRaw, lRaw uint8) bool {
		k := int(kRaw%6) + 1
		l := int(lRaw%3) + 1
		base, err := NewBravyiHaah(k)
		if err != nil {
			return false
		}
		ml, err := NewMultilevel(base, l)
		if err != nil {
			return false
		}
		wantIn, wantOut := 1, 1
		for i := 0; i < l; i++ {
			wantIn *= 3*k + 8
			wantOut *= k
		}
		if ml.Inputs() != wantIn || ml.Outputs() != wantOut {
			return false
		}
		eps := 1e-3
		manual := eps
		for i := 0; i < l; i++ {
			manual = base.OutputError(manual)
		}
		return math.Abs(ml.OutputError(eps)-manual) < 1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
