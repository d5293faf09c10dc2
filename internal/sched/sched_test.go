package sched

import (
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/resource"
)

func cm() resource.CostModel { return resource.DefaultCost() }

func TestCommute(t *testing.T) {
	cn := func(ctrl, tgt circuit.Qubit) *circuit.Gate {
		return &circuit.Gate{Kind: circuit.KindCNOT, Control: ctrl, Targets: []circuit.Qubit{tgt}}
	}
	h := &circuit.Gate{Kind: circuit.KindH, Control: circuit.NoQubit, Targets: []circuit.Qubit{0}}
	bar := &circuit.Gate{Kind: circuit.KindBarrier, Control: circuit.NoQubit, Targets: []circuit.Qubit{0, 1}}

	cases := []struct {
		a, b *circuit.Gate
		want bool
		name string
	}{
		{cn(0, 1), cn(2, 3), true, "disjoint"},
		{cn(0, 1), cn(0, 2), true, "shared control"},
		{cn(0, 2), cn(1, 2), true, "shared target"},
		{cn(0, 1), cn(1, 2), false, "target feeds control"},
		{cn(0, 1), cn(2, 0), false, "control feeds target"},
		{cn(0, 1), h, false, "H on control blocks"},
		{cn(0, 1), bar, false, "barrier blocks"},
	}
	for _, tc := range cases {
		if got := Commute(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: commute = %v, want %v", tc.name, got, tc.want)
		}
		if got := Commute(tc.b, tc.a); got != tc.want {
			t.Errorf("%s (swapped): commute = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSiftEarlierImprovesSharedControlChain(t *testing.T) {
	// Three CNOTs with a shared control are order-serialized by the
	// hazard rule; sifting cannot remove the shared-control hazard, but a
	// commuting reorder of shared-control gates with interleaved blockers
	// can shorten chains. Build a case where gate 2 commutes past gate 1.
	c := circuit.New(4)
	c.CNOT(0, 1) // A
	c.CNOT(2, 3) // B: disjoint from A (no swap benefit; shares nothing)
	c.CNOT(0, 2) // C: shares control with A, shares q2 with B (target/control -> blocked by B)
	before := cm().CriticalPath(c)
	out := SiftEarlier(c)
	after := cm().CriticalPath(out)
	if after > before {
		t.Errorf("sifting lengthened critical path: %d -> %d", before, after)
	}
	if len(out.Gates) != len(c.Gates) {
		t.Error("sifting changed gate count")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSiftEarlierPreservesFactorySemantics(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	out := SiftEarlier(f.Circuit)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// Gate census unchanged.
	for _, k := range []circuit.Kind{circuit.KindCNOT, circuit.KindCXX, circuit.KindInjectT, circuit.KindBarrier, circuit.KindMove} {
		if out.CountKind(k) != f.Circuit.CountKind(k) {
			t.Errorf("%v count changed", k)
		}
	}
	// Barriers still fence: no round-2 body gate may precede the barrier.
	barIdx := -1
	for i := range out.Gates {
		if out.Gates[i].Kind == circuit.KindBarrier {
			barIdx = i
			break
		}
	}
	for i := 0; i < barIdx; i++ {
		g := out.Gates[i]
		if g.Round == 2 && g.Kind != circuit.KindBarrier {
			t.Fatalf("round-2 gate %d crossed the barrier", i)
		}
	}
	// The critical path must not grow.
	if cm().CriticalPath(out) > cm().CriticalPath(f.Circuit) {
		t.Error("sifting lengthened the critical path")
	}
}
