package mesh

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/layout"
	"magicstate/internal/resource"
)

func TestStyleString(t *testing.T) {
	if StyleBraiding.String() != "braiding" ||
		StyleLatticeSurgery.String() != "lattice-surgery" ||
		StyleTeleportation.String() != "teleportation" {
		t.Error("style names wrong")
	}
	if InteractionStyle(99).String() == "" {
		t.Error("unknown style renders empty")
	}
	if len(Styles()) != 3 {
		t.Errorf("Styles() lists %d styles", len(Styles()))
	}
}

func TestStyleCyclesBraidingMatchesCostModel(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	g := circuit.Gate{Kind: circuit.KindCNOT, Control: 0, Targets: []circuit.Qubit{1}}
	dur, hold := cfg.styleCycles(&g)
	if want := resource.DefaultCost().GateCycles(&g); dur != want || hold != want {
		t.Errorf("braiding dur/hold = %d/%d, want %d", dur, hold, want)
	}
}

func TestStyleCyclesSurgeryScalesWithDistance(t *testing.T) {
	g := circuit.Gate{Kind: circuit.KindCNOT, Control: 0, Targets: []circuit.Qubit{1}}
	small := Config{Style: StyleLatticeSurgery, Distance: 5}
	small.fill()
	big := small
	big.Distance = 15
	ds, hs := small.styleCycles(&g)
	db, hb := big.styleCycles(&g)
	if ds != hs || db != hb {
		t.Error("surgery must hold for its full duration")
	}
	if db != 3*ds {
		t.Errorf("surgery d=15 dur %d, want 3x of d=5 dur %d", db, ds)
	}
	// At d = braidUnit the styles coincide.
	even := Config{Style: StyleLatticeSurgery, Distance: braidUnit}
	even.fill()
	de, _ := even.styleCycles(&g)
	if want := resource.DefaultCost().GateCycles(&g); de != want {
		t.Errorf("surgery at d=%d dur %d, want braiding %d", braidUnit, de, want)
	}
}

func TestStyleCyclesTeleportationShortHold(t *testing.T) {
	g := circuit.Gate{Kind: circuit.KindCNOT, Control: 0, Targets: []circuit.Qubit{1}}
	cfg := Config{Style: StyleTeleportation, Distance: 9}
	cfg.fill()
	dur, hold := cfg.styleCycles(&g)
	if hold != eprCycles {
		t.Errorf("hold = %d, want eprCycles %d", hold, eprCycles)
	}
	if dur <= hold {
		t.Errorf("dur %d must exceed hold %d (local completion)", dur, hold)
	}
	// Local gates hold for their full duration (no channel involved).
	h := circuit.Gate{Kind: circuit.KindH, Control: circuit.NoQubit, Targets: []circuit.Qubit{0}}
	dl, hl := cfg.styleCycles(&h)
	if dl != hl {
		t.Errorf("local gate dur/hold = %d/%d, want equal", dl, hl)
	}
}

func TestStyleCyclesBarrierStaysFree(t *testing.T) {
	b := circuit.Gate{Kind: circuit.KindBarrier, Control: circuit.NoQubit}
	for _, s := range Styles() {
		cfg := Config{Style: s}
		cfg.fill()
		if dur, _ := cfg.styleCycles(&b); dur != 0 {
			t.Errorf("%v: barrier dur = %d, want 0", s, dur)
		}
	}
}

func TestScaleByDistanceRoundsUp(t *testing.T) {
	if got := scaleByDistance(10, 3); got != 3 {
		t.Errorf("scale(10,3) = %d, want 3", got)
	}
	if got := scaleByDistance(15, 3); got != 5 {
		t.Errorf("scale(15,3) = %d, want ceil(45/10) = 5", got)
	}
	if got := scaleByDistance(1, 1); got != 1 {
		t.Errorf("scale(1,1) = %d, want floor at 1", got)
	}
	if got := scaleByDistance(0, 7); got != 0 {
		t.Errorf("scale(0,7) = %d, want 0", got)
	}
}

// styleFixture builds a small factory circuit and a random placement.
func styleFixture(t testing.TB, seed int64) (*circuit.Circuit, *layout.Placement) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 1, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	pl := layout.Random(f.Circuit.NumQubits, rand.New(rand.NewSource(seed)))
	return f.Circuit, pl
}

func TestSimulateTeleportationReducesStalls(t *testing.T) {
	c, pl := styleFixture(t, 3)
	braid, err := Simulate(c, pl, Config{Style: StyleBraiding})
	if err != nil {
		t.Fatal(err)
	}
	tele, err := Simulate(c, pl, Config{Style: StyleTeleportation, Distance: braidUnit})
	if err != nil {
		t.Fatal(err)
	}
	if tele.Stalls > braid.Stalls {
		t.Errorf("teleportation stalls %d > braiding %d", tele.Stalls, braid.Stalls)
	}
}

func TestSimulateSurgeryLatencyGrowsWithDistance(t *testing.T) {
	c, pl := styleFixture(t, 5)
	small, err := Simulate(c, pl, Config{Style: StyleLatticeSurgery, Distance: 5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(c, pl, Config{Style: StyleLatticeSurgery, Distance: 20})
	if err != nil {
		t.Fatal(err)
	}
	if big.Latency <= small.Latency {
		t.Errorf("surgery latency did not grow with d: d=20 %d <= d=5 %d", big.Latency, small.Latency)
	}
	ratio := float64(big.Latency) / float64(small.Latency)
	if ratio < 2 || ratio > 6 {
		t.Errorf("latency ratio %.2f far from the 4x duration scaling", ratio)
	}
}

func TestSimulateStylesPreserveOverlapInvariant(t *testing.T) {
	c, pl := styleFixture(t, 7)
	for _, s := range Styles() {
		res, err := Simulate(c, pl, Config{Style: s, RecordPaths: true})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := res.CheckNoOverlaps(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
		if res.Latency <= 0 {
			t.Errorf("%v: zero latency", s)
		}
	}
}

func TestSimulateBraidingUnchangedByStyleKnobs(t *testing.T) {
	c, pl := styleFixture(t, 9)
	a, err := Simulate(c, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(c, pl, Config{Distance: 31})
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.Stalls != b.Stalls {
		t.Errorf("braiding results changed with style knobs: %d/%d vs %d/%d",
			a.Latency, a.Stalls, b.Latency, b.Stalls)
	}
}

// Property: for any style and seed, simulation completes with the overlap
// invariant intact and every gate scheduled.
func TestSimulateStylePropertyComplete(t *testing.T) {
	f := func(seed int64, styleRaw uint8) bool {
		style := InteractionStyle(int(styleRaw) % 3)
		c, pl := styleFixture(t, seed)
		res, err := Simulate(c, pl, Config{Style: style, RecordPaths: true})
		if err != nil {
			return false
		}
		for i := range res.End {
			if res.End[i] < 0 {
				return false
			}
		}
		return res.CheckNoOverlaps() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestSimulateRejectsNegativeDistance: a negative code distance is an
// error under every style, not a run whose gates all clamp to one
// cycle.
func TestSimulateRejectsNegativeDistance(t *testing.T) {
	c, pl := styleFixture(t, 9)
	for _, style := range Styles() {
		_, err := Simulate(c, pl, Config{Style: style, Distance: -7})
		if err == nil || !strings.Contains(err.Error(), "-7") {
			t.Errorf("%v: err = %v, want one naming distance -7", style, err)
		}
	}
}
