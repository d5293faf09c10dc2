package circuit

import (
	"strings"
	"testing"
)

func sample() *Circuit {
	c := New(0)
	a := c.AddQubit("a")
	b := c.AddQubit("b")
	d := c.AddQubit("d")
	c.H(a)
	c.CNOT(a, b)
	c.CXX(a, []Qubit{b, d})
	c.InjectT(NoQubit, d)
	c.MeasX(b)
	return c
}

func TestBuilderAndValidate(t *testing.T) {
	c := sample()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	if c.NumQubits != 3 || len(c.Gates) != 5 {
		t.Fatalf("unexpected shape: %d qubits %d gates", c.NumQubits, len(c.Gates))
	}
	if c.Name(0) != "a" || c.Name(2) != "d" {
		t.Errorf("names lost: %q %q", c.Name(0), c.Name(2))
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	c := New(1)
	c.CNOT(0, 5)
	if err := c.Validate(); err == nil {
		t.Error("out-of-range target must be rejected")
	}
}

func TestValidateRejectsDuplicateOperand(t *testing.T) {
	c := New(2)
	c.CNOT(1, 1)
	if err := c.Validate(); err == nil {
		t.Error("cnot with control == target must be rejected")
	}
}

func TestValidateRejectsMalformedGates(t *testing.T) {
	cases := []Gate{
		{Kind: KindInvalid, Targets: []Qubit{0}},
		{Kind: KindCNOT, Control: NoQubit, Targets: []Qubit{0}},
		{Kind: KindH, Control: NoQubit},
		{Kind: KindMove, Control: 0, Targets: []Qubit{0}, Dest: NoQubit},
		{Kind: KindMove, Control: 0, Targets: []Qubit{2}, Dest: 1},
		{Kind: KindInjectT, Control: NoQubit, Targets: []Qubit{0, 1}},
	}
	for i, g := range cases {
		c := New(3)
		c.Append(g)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%v) should be rejected", i, g.Kind)
		}
	}
}

func TestOperands(t *testing.T) {
	g := Gate{Kind: KindCXX, Control: 7, Targets: []Qubit{1, 2, 3}}
	ops := g.Operands()
	if len(ops) != 4 || ops[0] != 7 {
		t.Errorf("cxx operands = %v", ops)
	}
	mv := Gate{Kind: KindMove, Control: 1, Targets: []Qubit{4}, Dest: 4}
	if got := mv.Operands(); len(got) != 2 || got[1] != 4 {
		t.Errorf("move operands = %v", got)
	}
	h := Gate{Kind: KindH, Control: NoQubit, Targets: []Qubit{0}}
	if got := h.Operands(); len(got) != 1 {
		t.Errorf("h operands = %v", got)
	}
}

func TestKindPredicates(t *testing.T) {
	for _, k := range []Kind{KindCNOT, KindCXX, KindInjectT, KindInjectTdag, KindMove} {
		if !k.IsTwoQubit() {
			t.Errorf("%v should be two-qubit", k)
		}
	}
	for _, k := range []Kind{KindH, KindMeasX, KindBarrier, KindPrepZ} {
		if k.IsTwoQubit() {
			t.Errorf("%v should not be two-qubit", k)
		}
	}
}

func TestCounts(t *testing.T) {
	c := sample()
	if c.CountKind(KindCNOT) != 1 || c.CountKind(KindH) != 1 {
		t.Error("CountKind broken")
	}
	if got := c.TwoQubitGateCount(); got != 3 { // cnot + cxx + inject
		t.Errorf("TwoQubitGateCount = %d, want 3", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := sample()
	cl := c.Clone()
	cl.Gates[2].Targets[0] = 0
	if c.Gates[2].Targets[0] == 0 {
		t.Error("clone shares target slices with original")
	}
	cl.AddQubit("x")
	if c.NumQubits == cl.NumQubits {
		t.Error("clone shares qubit count")
	}
}

func TestStringRendering(t *testing.T) {
	c := sample()
	s := c.String()
	for _, want := range []string{"h q0", "cnot q0, q1", "cxx q0 -> 2 targets", "injectT raw, q2", "measx q1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	var barrier Circuit
	barrier.NumQubits = 2
	barrier.Barrier([]Qubit{0, 1})
	if !strings.Contains(barrier.String(), "barrier over 2 qubits") {
		t.Error("barrier rendering broken")
	}
}

func TestBarrierCopiesSlice(t *testing.T) {
	qs := []Qubit{0, 1}
	c := New(2)
	c.Barrier(qs)
	qs[0] = 1
	if c.Gates[0].Targets[0] != 0 {
		t.Error("Barrier must copy its input slice")
	}
}
