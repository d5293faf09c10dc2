package stitch

import (
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/resource"
)

func build(t *testing.T, p bravyi.Params, opt Options) *Result {
	t.Helper()
	r, err := Build(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildSingleLevelIsBlockEmbedding(t *testing.T) {
	r := build(t, bravyi.Params{K: 8, Levels: 1}, Options{Seed: 1})
	if err := r.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Placement.Area() != 53 {
		t.Errorf("area = %d, want 53", r.Placement.Area())
	}
	if r.BlockW*r.BlockH < 53 {
		t.Errorf("block %dx%d too small", r.BlockW, r.BlockH)
	}
	if r.HopWires != 0 {
		t.Error("single level has no wires to hop")
	}
}

func TestBuildTwoLevelNoReuse(t *testing.T) {
	r := build(t, bravyi.Params{K: 2, Levels: 2}, Options{Seed: 2, Hops: NoHop})
	if err := r.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := r.Placement.Area(); got != 16*23 {
		t.Errorf("area = %d, want %d", got, 16*23)
	}
	if err := r.Factory.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTwoLevelReuseKeepsArea(t *testing.T) {
	r := build(t, bravyi.Params{K: 2, Levels: 2}, Options{Seed: 3, Reuse: true, Hops: NoHop})
	if err := r.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := r.Placement.Area(); got != 14*23 {
		t.Errorf("reuse area = %d, want %d (round-1 footprint only)", got, 14*23)
	}
}

func TestPortReassignmentShortensWires(t *testing.T) {
	with := build(t, bravyi.Params{K: 4, Levels: 2}, Options{Seed: 4, Hops: NoHop})
	without := build(t, bravyi.Params{K: 4, Levels: 2}, Options{Seed: 4, Hops: NoHop, DisablePortReassign: true})
	total := func(r *Result) int {
		sum := 0
		for _, w := range r.Factory.Wires {
			src := r.Placement.At(int(r.Factory.Modules[w.FromModule].Out[w.FromPort]))
			dst := r.Placement.At(int(r.Factory.Modules[w.ToModule].Raw[w.ToSlot]))
			sum += layout.Manhattan(src, dst)
		}
		return sum
	}
	if total(with) > total(without) {
		t.Errorf("port reassignment lengthened wires: %d > %d", total(with), total(without))
	}
}

func TestPortReassignmentKeepsWiringBijective(t *testing.T) {
	r := build(t, bravyi.Params{K: 3, Levels: 2}, Options{Seed: 5, Hops: NoHop})
	f := r.Factory
	used := make(map[[2]int]int)
	for _, w := range f.Wires {
		used[[2]int{w.FromModule, w.FromPort}]++
		src := f.Modules[w.FromModule].Out[w.FromPort]
		if f.Circuit.Gates[w.GateIdx].Control != src {
			t.Fatalf("wire %+v control mismatch after reassignment", w)
		}
	}
	for _, v := range used {
		if v != 1 {
			t.Fatal("port used more than once after reassignment")
		}
	}
}

func TestHopsRewriteMoves(t *testing.T) {
	p := bravyi.Params{K: 2, Levels: 2}
	nohop := build(t, p, Options{Seed: 6, Hops: NoHop})
	hop := build(t, p, Options{Seed: 6, Hops: AnnealedMidpointHop})
	if hop.HopWires == 0 {
		t.Fatal("no wires hopped")
	}
	movesDirect := nohop.Factory.Circuit.CountKind(circuit.KindMove)
	movesHopped := hop.Factory.Circuit.CountKind(circuit.KindMove)
	if movesHopped != movesDirect+hop.HopWires {
		t.Errorf("moves = %d, want %d + %d hops", movesHopped, movesDirect, hop.HopWires)
	}
	if err := hop.Factory.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := hop.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	// Hops reuse dead tiles: area unchanged.
	if hop.Placement.Area() != nohop.Placement.Area() {
		t.Errorf("hops changed area: %d vs %d", hop.Placement.Area(), nohop.Placement.Area())
	}
}

func TestAllHopModesSimulate(t *testing.T) {
	p := bravyi.Params{K: 2, Levels: 2}
	for _, mode := range []HopMode{NoHop, RandomHop, AnnealedRandomHop, AnnealedMidpointHop} {
		r := build(t, p, Options{Seed: 7, Hops: mode, Reuse: true})
		res, err := mesh.Simulate(r.Factory.Circuit, r.Placement, mesh.Config{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Latency <= 0 {
			t.Fatalf("%v: zero latency", mode)
		}
		if _, err := PermutationLatency(r.Factory, res.Start, res.End, 2); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}

func TestHopModeStrings(t *testing.T) {
	names := map[HopMode]string{
		NoHop: "no-hop", RandomHop: "random-hop",
		AnnealedRandomHop: "annealed-random-hop", AnnealedMidpointHop: "annealed-midpoint-hop",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d: %q != %q", m, m.String(), want)
		}
	}
}

func TestPermutationLatencyErrors(t *testing.T) {
	r := build(t, bravyi.Params{K: 2, Levels: 2}, Options{Seed: 8, Hops: NoHop})
	if _, err := PermutationLatency(r.Factory, nil, nil, 1); err == nil {
		t.Error("round 1 should error")
	}
	if _, err := PermutationLatency(r.Factory, nil, nil, 3); err == nil {
		t.Error("round 3 of a 2-level factory should error")
	}
}

func TestStitchBeatsLinearOnTwoLevel(t *testing.T) {
	p := bravyi.Params{K: 4, Levels: 2}
	hs := build(t, p, Options{Seed: 9, Reuse: true})
	rhs, err := mesh.Simulate(hs.Factory.Circuit, hs.Placement, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := bravyi.Build(bravyi.Params{K: 4, Levels: 2, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	rlin, err := mesh.Simulate(lf.Circuit, layout.Linear(lf), mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hsVol := rhs.Volume().SpaceTime()
	linVol := rlin.Volume().SpaceTime()
	if hsVol >= linVol {
		t.Errorf("HS volume %.3g should beat Line(NR) %.3g", hsVol, linVol)
	}
	// HS should also stay within a sane multiple of the critical volume.
	cm := resource.DefaultCost()
	crit := float64(cm.CriticalPath(hs.Factory.Circuit)) * float64(hs.Placement.Area())
	if hsVol > 4*crit {
		t.Errorf("HS volume %.3g too far above critical %.3g", hsVol, crit)
	}
}

func TestApplyHopsValidation(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := bravyi.ApplyHops(f, map[int]circuit.Qubit{-1: 0}); err == nil {
		t.Error("negative wire index should fail")
	}
	if err := bravyi.ApplyHops(f, map[int]circuit.Qubit{0: circuit.Qubit(f.Circuit.NumQubits)}); err == nil {
		t.Error("out-of-range hop qubit should fail")
	}
	if err := bravyi.ApplyHops(f, nil); err != nil {
		t.Error("empty hop set should be a no-op")
	}
}

func TestStitchThreeLevelReuse(t *testing.T) {
	// Deep reuse stitching: ids reused across rounds keep their tiles, so
	// the assigner stays placement-aware for them; only later-round fresh
	// ids sort to the back of the pool. The result must be a valid,
	// simulable mapping that still beats the linear baseline.
	r := build(t, bravyi.Params{K: 2, Levels: 3}, Options{Seed: 1, Reuse: true})
	if err := r.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Factory.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := mesh.Simulate(r.Factory.Circuit, r.Placement, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Latency <= 0 {
		t.Error("zero latency")
	}
	lin, err := bravyi.Build(bravyi.Params{K: 2, Levels: 3, Reuse: true, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	simLin, err := mesh.Simulate(lin.Circuit, layout.Linear(lin), mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Latency >= simLin.Latency {
		t.Errorf("three-level stitching latency %d not below linear %d", sim.Latency, simLin.Latency)
	}
}

func TestStitchThreeLevelNoReuse(t *testing.T) {
	r := build(t, bravyi.Params{K: 2, Levels: 3}, Options{Seed: 1, Hops: NoHop})
	if err := r.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Factory.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3-level factory: rounds of 196, 28, 4 modules.
	if got := len(r.Factory.Modules); got != 196+28+4 {
		t.Errorf("modules = %d, want 228", got)
	}
	res, err := mesh.Simulate(r.Factory.Circuit, r.Placement, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Error("zero latency")
	}
}

func TestExpandSpacingTradesAreaForLatency(t *testing.T) {
	// §IX "Area Expansion": extra routing space between blocks should not
	// slow the factory down, and typically speeds the permutation up.
	p := bravyi.Params{K: 4, Levels: 2}
	tight := build(t, p, Options{Seed: 1, Hops: NoHop})
	roomy := build(t, p, Options{Seed: 1, Hops: NoHop, ExpandSpacing: 2})
	if err := roomy.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	// Occupied-tile area is identical (spacing adds empty tiles only)...
	if tight.Placement.Area() != roomy.Placement.Area() {
		t.Errorf("spacing changed occupied area: %d vs %d",
			tight.Placement.Area(), roomy.Placement.Area())
	}
	// ...but the hull grows.
	if roomy.Placement.HullArea() <= tight.Placement.HullArea() {
		t.Errorf("spacing should grow the hull: %d vs %d",
			roomy.Placement.HullArea(), tight.Placement.HullArea())
	}
	rt, err := mesh.Simulate(tight.Factory.Circuit, tight.Placement, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := mesh.Simulate(roomy.Factory.Circuit, roomy.Placement, mesh.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if float64(rr.Latency) > 1.1*float64(rt.Latency) {
		t.Errorf("extra area should not slow execution: %d vs %d", rr.Latency, rt.Latency)
	}
}

// TestStitchedFactoryGatesPresizedExactly checks bravyi.Build's
// closed-form gate presize under stitching's placement-aware reuse
// assigner, with and without barriers and hop rewriting.
func TestStitchedFactoryGatesPresizedExactly(t *testing.T) {
	for _, opt := range []Options{
		{Seed: 1, Reuse: true, Hops: NoHop},
		{Seed: 1, Reuse: true, Hops: NoHop, NoBarriers: true},
		{Seed: 1, Reuse: true},
	} {
		r := build(t, bravyi.Params{K: 2, Levels: 3}, opt)
		if g := r.Factory.Circuit.Gates; len(g) != cap(g) {
			t.Errorf("%+v: %d gates in capacity %d", opt, len(g), cap(g))
		}
	}
}
