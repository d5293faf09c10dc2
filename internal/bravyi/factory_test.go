package bravyi

import (
	"testing"
	"testing/quick"

	"magicstate/internal/circuit"
)

func mustBuild(t *testing.T, p Params) *Factory {
	t.Helper()
	f, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := Params{K: 2, Levels: 2}
	if p.Capacity() != 4 || p.Inputs() != 196 {
		t.Errorf("capacity/inputs = %d/%d, want 4/196", p.Capacity(), p.Inputs())
	}
	if p.ModulesInRound(1) != 14 || p.ModulesInRound(2) != 2 {
		t.Errorf("modules per round = %d/%d, want 14/2",
			p.ModulesInRound(1), p.ModulesInRound(2))
	}
	if p.TotalModules() != 16 {
		t.Errorf("total modules = %d, want 16", p.TotalModules())
	}
	if p.QubitsPerModule() != 23 {
		t.Errorf("qubits per module = %d, want 23", p.QubitsPerModule())
	}
}

func TestParamsForCapacity(t *testing.T) {
	p, err := ParamsForCapacity(36, 2)
	if err != nil || p.K != 6 {
		t.Errorf("capacity 36 level 2: k=%d err=%v, want 6", p.K, err)
	}
	if _, err := ParamsForCapacity(5, 2); err == nil {
		t.Error("capacity 5 at level 2 is not a perfect square, want error")
	}
	if _, err := ParamsForCapacity(0, 1); err == nil {
		t.Error("capacity 0 should be rejected")
	}
	p, err = ParamsForCapacity(24, 1)
	if err != nil || p.K != 24 {
		t.Errorf("capacity 24 level 1: k=%d err=%v", p.K, err)
	}
}

func TestValidateParams(t *testing.T) {
	if err := (Params{K: 0, Levels: 1}).Validate(); err == nil {
		t.Error("K=0 should fail")
	}
	if err := (Params{K: 1, Levels: 0}).Validate(); err == nil {
		t.Error("Levels=0 should fail")
	}
	if _, err := Build(Params{K: -1, Levels: 1}); err == nil {
		t.Error("Build should propagate validation errors")
	}
}

func TestErrorModel(t *testing.T) {
	p := Params{K: 8, Levels: 1}
	if got := p.OutputError(1e-3); got != 25e-6*1.0 { // (1+24)*1e-6
		t.Errorf("OutputError = %v, want 2.5e-5", got)
	}
	if got := p.SuccessProbability(1e-3); got != 1-32e-3 {
		t.Errorf("SuccessProbability = %v, want 0.968", got)
	}
	if got := p.SuccessProbability(1); got != 0 {
		t.Errorf("success probability must clamp at 0, got %v", got)
	}
}

func TestSingleLevelStructure(t *testing.T) {
	for _, k := range []int{1, 2, 8} {
		f := mustBuild(t, Params{K: k, Levels: 1})
		if len(f.Modules) != 1 || len(f.Rounds) != 1 || len(f.Wires) != 0 {
			t.Fatalf("k=%d: modules/rounds/wires = %d/%d/%d",
				k, len(f.Modules), len(f.Rounds), len(f.Wires))
		}
		if f.Circuit.NumQubits != 5*k+13 {
			t.Errorf("k=%d: qubits = %d, want %d", k, f.Circuit.NumQubits, 5*k+13)
		}
		if got := len(f.Circuit.Gates); got != GatesPerModule(k) {
			t.Errorf("k=%d: gates = %d, want %d", k, got, GatesPerModule(k))
		}
		m := f.Modules[0]
		if len(m.Raw) != 3*k+8 || len(m.Anc) != k+5 || len(m.Out) != k {
			t.Errorf("k=%d: register sizes %d/%d/%d", k, len(m.Raw), len(m.Anc), len(m.Out))
		}
		if got := len(f.Outputs()); got != k {
			t.Errorf("k=%d: outputs = %d, want %d", k, got, k)
		}
	}
}

func TestGateKindCensus(t *testing.T) {
	k := 8
	f := mustBuild(t, Params{K: k, Levels: 1})
	c := f.Circuit
	census := map[circuit.Kind]int{
		circuit.KindH:          3 + k,
		circuit.KindCNOT:       2 + 4*k,
		circuit.KindCXX:        2,
		circuit.KindInjectT:    2*k + 4,
		circuit.KindInjectTdag: k + 4,
		circuit.KindMeasX:      k + 5,
	}
	for kind, want := range census {
		if got := c.CountKind(kind); got != want {
			t.Errorf("%v count = %d, want %d", kind, got, want)
		}
	}
	// Every raw state is consumed exactly once.
	if total := c.CountKind(circuit.KindInjectT) + c.CountKind(circuit.KindInjectTdag); total != 3*k+8 {
		t.Errorf("injections = %d, want 3k+8 = %d", total, 3*k+8)
	}
}

func TestRawConsumersCoverAllSlots(t *testing.T) {
	f := mustBuild(t, Params{K: 4, Levels: 1})
	m := f.Modules[0]
	seen := make(map[int]bool)
	for s, gi := range m.RawConsumer {
		if gi < 0 {
			t.Fatalf("slot %d has no consumer", s)
		}
		if seen[gi] {
			t.Fatalf("gate %d consumes two slots", gi)
		}
		seen[gi] = true
		g := f.Circuit.Gates[gi]
		if g.Kind != circuit.KindInjectT && g.Kind != circuit.KindInjectTdag {
			t.Fatalf("slot %d consumer is %v, want injection", s, g.Kind)
		}
		if g.Control != m.Raw[s] {
			t.Fatalf("slot %d consumer control %d != raw %d", s, g.Control, m.Raw[s])
		}
	}
}

func TestTwoLevelStructure(t *testing.T) {
	p := Params{K: 2, Levels: 2, Barriers: true}
	f := mustBuild(t, p)
	if len(f.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(f.Rounds))
	}
	if got := len(f.Rounds[0].Modules); got != 14 {
		t.Errorf("round 1 modules = %d, want 14", got)
	}
	if got := len(f.Rounds[1].Modules); got != 2 {
		t.Errorf("round 2 modules = %d, want 2", got)
	}
	// 2 consuming modules x 14 slots each.
	if len(f.Wires) != 28 {
		t.Errorf("wires = %d, want 28", len(f.Wires))
	}
	// Every module has the full 5k+13 footprint.
	want := 16 * 23
	if f.Circuit.NumQubits != want {
		t.Errorf("qubits = %d, want %d", f.Circuit.NumQubits, want)
	}
	// The permutation phase is one Move per wire.
	if got := f.Circuit.CountKind(circuit.KindMove); got != 28 {
		t.Errorf("moves = %d, want 28", got)
	}
	r2 := f.Rounds[1]
	if r2.PermEnd-r2.PermStart != 28 {
		t.Errorf("round 2 perm phase = %d gates, want 28", r2.PermEnd-r2.PermStart)
	}
	if len(f.Rounds[0].Modules) != 14 || f.Rounds[0].PermEnd != f.Rounds[0].PermStart {
		t.Error("round 1 must have an empty permutation phase")
	}
	for gi := r2.PermStart; gi < r2.PermEnd; gi++ {
		if g := &f.Circuit.Gates[gi]; g.Kind != circuit.KindMove || g.Round != 2 {
			t.Fatalf("gate %d in perm range is not a round-2 move", gi)
		}
	}
	if got := len(f.Outputs()); got != 4 {
		t.Errorf("outputs = %d, want 4", got)
	}
	// One barrier between the rounds.
	if got := f.Circuit.CountKind(circuit.KindBarrier); got != 1 {
		t.Errorf("barriers = %d, want 1", got)
	}
}

func TestWiringCorrelationConstraint(t *testing.T) {
	// Each consuming module must draw every input from a distinct
	// previous-round module (§II.G).
	for _, p := range []Params{
		{K: 2, Levels: 2},
		{K: 3, Levels: 2},
		{K: 2, Levels: 3},
	} {
		f := mustBuild(t, p)
		perConsumer := make(map[int]map[int]bool)
		for _, w := range f.Wires {
			if perConsumer[w.ToModule] == nil {
				perConsumer[w.ToModule] = make(map[int]bool)
			}
			if perConsumer[w.ToModule][w.FromModule] {
				t.Fatalf("K=%d L=%d: module %d receives two states from module %d",
					p.K, p.Levels, w.ToModule, w.FromModule)
			}
			perConsumer[w.ToModule][w.FromModule] = true
		}
		for mi, srcs := range perConsumer {
			if len(srcs) != 3*p.K+8 {
				t.Errorf("module %d has %d distinct sources, want %d", mi, len(srcs), 3*p.K+8)
			}
		}
	}
}

func TestWiringIsBijective(t *testing.T) {
	f := mustBuild(t, Params{K: 3, Levels: 2})
	// Every (module, port) pair of round 1 feeds exactly one wire.
	used := make(map[[2]int]int)
	for _, w := range f.Wires {
		used[[2]int{w.FromModule, w.FromPort}]++
	}
	for _, mi := range f.Rounds[0].Modules {
		for port := 0; port < f.Params.K; port++ {
			if used[[2]int{mi, port}] != 1 {
				t.Errorf("port (%d,%d) used %d times", mi, port, used[[2]int{mi, port}])
			}
		}
	}
	// Wire gate controls match sources.
	for _, w := range f.Wires {
		src := f.Modules[w.FromModule].Out[w.FromPort]
		if f.Circuit.Gates[w.GateIdx].Control != src {
			t.Errorf("wire %+v: gate control %d != source %d",
				w, f.Circuit.Gates[w.GateIdx].Control, src)
		}
	}
}

func TestReuseReducesQubits(t *testing.T) {
	nr := mustBuild(t, Params{K: 4, Levels: 2})
	r := mustBuild(t, Params{K: 4, Levels: 2, Reuse: true})
	if r.Circuit.NumQubits >= nr.Circuit.NumQubits {
		t.Errorf("reuse should shrink qubit count: reuse %d, no-reuse %d",
			r.Circuit.NumQubits, nr.Circuit.NumQubits)
	}
	// With reuse, round 2 should allocate no fresh qubits at all for K=4:
	// the freed pool (raw+anc of 20 modules) easily covers 4 modules.
	if len(r.Rounds[1].Fresh) != 0 {
		t.Errorf("round 2 allocated %d fresh qubits despite reuse", len(r.Rounds[1].Fresh))
	}
	if err := r.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReuseNeverStealsLiveOutputs(t *testing.T) {
	f := mustBuild(t, Params{K: 2, Levels: 2, Reuse: true})
	// Round-1 outputs are live into round 2 (they are round 2's raw
	// inputs); none may appear among round 2's anc/out registers.
	live := make(map[circuit.Qubit]bool)
	for _, mi := range f.Rounds[0].Modules {
		for _, q := range f.Modules[mi].Out {
			live[q] = true
		}
	}
	for _, mi := range f.Rounds[1].Modules {
		m := f.Modules[mi]
		regs := append(append(append([]circuit.Qubit{}, m.Raw...), m.Anc...), m.Out...)
		for _, q := range regs {
			if live[q] {
				t.Fatalf("round 2 module %d reuses live output qubit %d", mi, q)
			}
		}
	}
}

func TestReuseRegistersAreDisjointWithinRound(t *testing.T) {
	f := mustBuild(t, Params{K: 3, Levels: 2, Reuse: true})
	seen := make(map[circuit.Qubit]int)
	for _, mi := range f.Rounds[1].Modules {
		m := f.Modules[mi]
		for _, q := range append(append(append([]circuit.Qubit{}, m.Raw...), m.Anc...), m.Out...) {
			if prev, ok := seen[q]; ok {
				t.Fatalf("qubit %d assigned to modules %d and %d", q, prev, mi)
			}
			seen[q] = mi
		}
	}
}

func TestBarriersOptional(t *testing.T) {
	f := mustBuild(t, Params{K: 2, Levels: 2, Barriers: false})
	if got := f.Circuit.CountKind(circuit.KindBarrier); got != 0 {
		t.Errorf("barriers = %d, want 0", got)
	}
	f3 := mustBuild(t, Params{K: 2, Levels: 3, Barriers: true})
	if got := f3.Circuit.CountKind(circuit.KindBarrier); got != 2 {
		t.Errorf("3-level factory barriers = %d, want 2", got)
	}
}

func TestRoundGateRangesAreDisjointAndTagged(t *testing.T) {
	f := mustBuild(t, Params{K: 2, Levels: 2, Barriers: true})
	for ri, r := range f.Rounds {
		if r.GateStart >= r.GateEnd {
			t.Fatalf("round %d empty range", ri)
		}
		for gi := r.GateStart; gi < r.GateEnd; gi++ {
			if got := f.Circuit.Gates[gi].Round; got != r.Index {
				t.Errorf("gate %d tagged round %d, want %d", gi, got, r.Index)
			}
		}
	}
	if f.Rounds[0].GateEnd > f.Rounds[1].GateStart {
		t.Error("round ranges overlap")
	}
}

func TestPermutationMovesTargetSlots(t *testing.T) {
	f := mustBuild(t, Params{K: 2, Levels: 2})
	for _, w := range f.Wires {
		g := f.Circuit.Gates[w.GateIdx]
		if g.Kind != circuit.KindMove {
			t.Fatalf("wire gate %d is %v, want move", w.GateIdx, g.Kind)
		}
		if g.Dest != f.Modules[w.ToModule].Raw[w.ToSlot] {
			t.Fatalf("wire %+v: move dest %d != slot %d", w, g.Dest, f.Modules[w.ToModule].Raw[w.ToSlot])
		}
		if g.Control != f.Modules[w.FromModule].Out[w.FromPort] {
			t.Fatalf("wire %+v: move src mismatch", w)
		}
	}
}

func TestModuleGateRangesCoverTagging(t *testing.T) {
	f := mustBuild(t, Params{K: 2, Levels: 2})
	for _, m := range f.Modules {
		if m.GateEnd-m.GateStart != GatesPerModule(f.Params.K) {
			t.Fatalf("module %d has %d gates, want %d",
				m.Index, m.GateEnd-m.GateStart, GatesPerModule(f.Params.K))
		}
		for gi := m.GateStart; gi < m.GateEnd; gi++ {
			if f.Circuit.Gates[gi].Module != m.Index {
				t.Fatalf("gate %d tagged module %d, want %d",
					gi, f.Circuit.Gates[gi].Module, m.Index)
			}
		}
	}
}

func TestReassignPorts(t *testing.T) {
	f := mustBuild(t, Params{K: 3, Levels: 2})
	pm := f.Rounds[0].Modules[0]
	orig := append([]circuit.Qubit{}, f.Modules[pm].Out...)
	if err := f.ReassignPorts(pm, []int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	// Controls updated and still a bijection over the module's outputs.
	used := make(map[circuit.Qubit]bool)
	for _, w := range f.Wires {
		if w.FromModule != pm {
			continue
		}
		src := f.Circuit.Gates[w.GateIdx].Control
		if used[src] {
			t.Fatalf("output %d doubly consumed after reassignment", src)
		}
		used[src] = true
		if src != orig[w.FromPort] {
			t.Errorf("wire port %d control %d, want %d", w.FromPort, src, orig[w.FromPort])
		}
	}
	if len(used) != 3 {
		t.Errorf("only %d distinct sources after reassignment", len(used))
	}
	if err := f.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReassignPortsRejectsBadInput(t *testing.T) {
	f := mustBuild(t, Params{K: 2, Levels: 2})
	if err := f.ReassignPorts(-1, []int{0, 1}); err == nil {
		t.Error("negative module index should fail")
	}
	if err := f.ReassignPorts(0, []int{0}); err == nil {
		t.Error("short perm should fail")
	}
	if err := f.ReassignPorts(0, []int{0, 0}); err == nil {
		t.Error("non-permutation should fail")
	}
}

// Property: for random small parameters the generated circuit validates
// and the qubit count matches the closed form.
func TestBuildClosedFormQubitCount(t *testing.T) {
	f := func(kSeed, lSeed uint8) bool {
		k := 1 + int(kSeed)%4
		l := 1 + int(lSeed)%2
		p := Params{K: k, Levels: l}
		fac, err := Build(p)
		if err != nil {
			return false
		}
		want := p.TotalModules() * (5*k + 13)
		return fac.Circuit.NumQubits == want && fac.Circuit.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCustomAssigner(t *testing.T) {
	var calls int
	p := Params{K: 2, Levels: 2, Reuse: true,
		Assigner: func(round, im, need int, pool []circuit.Qubit) []circuit.Qubit {
			calls++
			// Reverse-order policy.
			out := make([]circuit.Qubit, 0, need)
			for i := len(pool) - 1 - im*need; i >= 0 && len(out) < need; i-- {
				out = append(out, pool[i])
			}
			return out
		}}
	f := mustBuild(t, p)
	if calls == 0 {
		t.Fatal("custom assigner never consulted")
	}
	if err := f.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Rounds[1].Fresh) != 0 {
		t.Errorf("custom assigner should cover all reuse needs, %d fresh", len(f.Rounds[1].Fresh))
	}
}

// TestBuildPresizesExactly pins Build's closed-form presizing to what
// emitModule and the permutation phase actually emit: every slice ends
// exactly full, so the closed form cannot drift from the generator.
func TestBuildPresizesExactly(t *testing.T) {
	for _, k := range []int{1, 2, 4, 6} {
		for levels := 1; levels <= 3; levels++ {
			for _, reuse := range []bool{false, true} {
				for _, barriers := range []bool{false, true} {
					p := Params{K: k, Levels: levels, Reuse: reuse, Barriers: barriers}
					f := mustBuild(t, p)
					if g := f.Circuit.Gates; len(g) != cap(g) {
						t.Errorf("%+v: %d gates in capacity %d", p, len(g), cap(g))
					}
					if len(f.Modules) != cap(f.Modules) || len(f.Wires) != cap(f.Wires) {
						t.Errorf("%+v: modules %d/%d, wires %d/%d", p,
							len(f.Modules), cap(f.Modules), len(f.Wires), cap(f.Wires))
					}
				}
			}
		}
	}
}

// TestAssignerSeesSortedPool checks that every assigner call receives the
// reuse pool in ascending id order, including calls after Build has
// granted ids from it and after a round has freed more.
func TestAssignerSeesSortedPool(t *testing.T) {
	calls := 0
	p := Params{K: 2, Levels: 3, Reuse: true, Barriers: true,
		Assigner: func(round, im, need int, pool []circuit.Qubit) []circuit.Qubit {
			calls++
			for i := 1; i < len(pool); i++ {
				if pool[i-1] >= pool[i] {
					t.Fatalf("round %d module %d: pool not sorted at %d: %v", round, im, i, pool)
				}
			}
			// Take from the back so granted ids leave holes mid-pool.
			if need > len(pool) {
				need = len(pool)
			}
			return append([]circuit.Qubit(nil), pool[len(pool)-need:]...)
		}}
	f := mustBuild(t, p)
	if want := 3 * (p.ModulesInRound(2) + p.ModulesInRound(3)); calls != want {
		t.Errorf("assigner called %d times, want %d", calls, want)
	}
	if err := f.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: for arbitrary small parameters, applying hops to every wire
// preserves circuit validity, gate-range tagging and the wiring bijection.
func TestApplyHopsPreservesStructure(t *testing.T) {
	f := func(kSeed uint8) bool {
		k := 2 + int(kSeed)%3
		fac, err := Build(Params{K: k, Levels: 2, Barriers: true})
		if err != nil {
			return false
		}
		// Hop every wire through a distinct dead round-1 raw qubit.
		hops := make(map[int]circuit.Qubit)
		pool := fac.Modules[fac.Rounds[0].Modules[0]].Raw
		next := 0
		for wi := range fac.Wires {
			if next >= len(pool) {
				break
			}
			hops[wi] = pool[next]
			next++
		}
		before := len(fac.Circuit.Gates)
		if err := ApplyHops(fac, hops); err != nil {
			return false
		}
		if len(fac.Circuit.Gates) != before+len(hops) {
			return false
		}
		// Wires still point at moves sourced from their ports.
		for _, w := range fac.Wires {
			g := fac.Circuit.Gates[w.GateIdx]
			if g.Kind != circuit.KindMove {
				return false
			}
			if g.Control != fac.Modules[w.FromModule].Out[w.FromPort] {
				return false
			}
		}
		// Module gate ranges still hold their own gates.
		for _, m := range fac.Modules {
			if m.GateEnd-m.GateStart != GatesPerModule(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
