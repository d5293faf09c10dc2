package circuit

import (
	"fmt"
	"strings"
)

// Circuit is an ordered sequence of gates over NumQubits logical qubits.
// The sequence order defines program order; dependencies derive from
// shared operands (see Deps).
type Circuit struct {
	NumQubits int
	Gates     []Gate
	Names     []string // optional per-qubit debug names; empty or len == NumQubits

	// arena is the current operand-slice chunk. Gate emitters carve
	// Targets slices out of it so a circuit of g gates costs O(g/arenaChunk)
	// allocations instead of one per gate. Carved slices are capacity-
	// capped, and gates never grow Targets in place (circuits are immutable
	// once built), so chunk reuse can never alias two gates' operands.
	arena []Qubit
}

// arenaChunk is the operand arena's chunk size in qubits. Large enough to
// amortize gate emission to well under one allocation per gate, small
// enough that an abandoned chunk tail wastes almost nothing.
const arenaChunk = 1024

// carve returns an arena-backed slice holding the given operands. Slices
// longer than a chunk get dedicated backing (whole-circuit barriers).
func (c *Circuit) carve(qs []Qubit) []Qubit {
	n := len(qs)
	if n > arenaChunk {
		return append([]Qubit(nil), qs...)
	}
	if len(c.arena)+n > cap(c.arena) {
		c.arena = make([]Qubit, 0, arenaChunk)
	}
	start := len(c.arena)
	c.arena = append(c.arena, qs...)
	return c.arena[start : start+n : start+n]
}

// carve1 is carve for the single-target common case.
func (c *Circuit) carve1(q Qubit) []Qubit {
	if len(c.arena) == cap(c.arena) {
		c.arena = make([]Qubit, 0, arenaChunk)
	}
	start := len(c.arena)
	c.arena = append(c.arena, q)
	return c.arena[start : start+1 : start+1]
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit { return &Circuit{NumQubits: n} }

// AddQubit appends a fresh qubit with an optional name and returns its id.
func (c *Circuit) AddQubit(name string) Qubit {
	q := Qubit(c.NumQubits)
	c.NumQubits++
	if name != "" || len(c.Names) > 0 {
		for len(c.Names) < c.NumQubits-1 {
			c.Names = append(c.Names, "")
		}
		c.Names = append(c.Names, name)
	}
	return q
}

// Name returns the debug name of q, or "q<i>" when unnamed.
func (c *Circuit) Name(q Qubit) string {
	if int(q) < len(c.Names) && c.Names[q] != "" {
		return c.Names[q]
	}
	return fmt.Sprintf("q%d", q)
}

// Append adds a gate to the end of the program.
func (c *Circuit) Append(g Gate) { c.Gates = append(c.Gates, g) }

// H appends a Hadamard on q.
func (c *Circuit) H(q Qubit) { c.Append(Gate{Kind: KindH, Control: NoQubit, Targets: c.carve1(q)}) }

// PrepZ appends a |0> preparation on q.
func (c *Circuit) PrepZ(q Qubit) {
	c.Append(Gate{Kind: KindPrepZ, Control: NoQubit, Targets: c.carve1(q)})
}

// T appends a T rotation on q (consumes a magic state when fault
// tolerant; T and T-dagger share a cost and interaction profile, so the
// IR does not distinguish them).
func (c *Circuit) T(q Qubit) { c.Append(Gate{Kind: KindT, Control: NoQubit, Targets: c.carve1(q)}) }

// S appends a phase gate on q (decomposes into two T gates, §II.E).
func (c *Circuit) S(q Qubit) { c.Append(Gate{Kind: KindS, Control: NoQubit, Targets: c.carve1(q)}) }

// X appends a Pauli X on q.
func (c *Circuit) X(q Qubit) { c.Append(Gate{Kind: KindX, Control: NoQubit, Targets: c.carve1(q)}) }

// Z appends a Pauli Z on q.
func (c *Circuit) Z(q Qubit) { c.Append(Gate{Kind: KindZ, Control: NoQubit, Targets: c.carve1(q)}) }

// MeasZ appends a Z-basis measurement of q.
func (c *Circuit) MeasZ(q Qubit) {
	c.Append(Gate{Kind: KindMeasZ, Control: NoQubit, Targets: c.carve1(q)})
}

// CNOT appends a controlled-NOT with the given control and target.
func (c *Circuit) CNOT(ctrl, tgt Qubit) {
	c.Append(Gate{Kind: KindCNOT, Control: ctrl, Targets: c.carve1(tgt)})
}

// CXX appends a single-control multi-target CNOT.
func (c *Circuit) CXX(ctrl Qubit, tgts []Qubit) {
	c.Append(Gate{Kind: KindCXX, Control: ctrl, Targets: c.carve(tgts)})
}

// InjectT appends a T-state injection into data. raw is the source qubit
// carrying the state, or NoQubit for an ambient (freshly prepared) state.
func (c *Circuit) InjectT(raw, data Qubit) {
	c.Append(Gate{Kind: KindInjectT, Control: raw, Targets: c.carve1(data)})
}

// InjectTdag appends an adjoint T-state injection.
func (c *Circuit) InjectTdag(raw, data Qubit) {
	c.Append(Gate{Kind: KindInjectTdag, Control: raw, Targets: c.carve1(data)})
}

// MeasX appends an X-basis measurement of q.
func (c *Circuit) MeasX(q Qubit) {
	c.Append(Gate{Kind: KindMeasX, Control: NoQubit, Targets: c.carve1(q)})
}

// Move appends a state relocation of src into the tile slot identified by
// dst. dst is itself a qubit id (the slot's identity after the move).
func (c *Circuit) Move(src, dst Qubit) {
	c.Append(Gate{Kind: KindMove, Control: src, Targets: c.carve1(dst), Dest: dst})
}

// Barrier appends a scheduling fence over qs. Physically this is a
// multi-target CNOT controlled by an ancilla prepared in |0> (§V.A), which
// is a no-op on the data but serializes everything across it.
func (c *Circuit) Barrier(qs []Qubit) {
	c.Append(Gate{Kind: KindBarrier, Control: NoQubit, Targets: c.carve(qs), Module: -1})
}

// Validate checks structural well-formedness: operand ids in range, gate
// arity constraints, and no duplicate operands within a gate. Duplicate
// detection runs on a stamp-indexed scratch array (a slot is "seen" iff it
// carries the current gate's stamp), so validating g gates costs O(1)
// allocations instead of one map per gate.
func (c *Circuit) Validate() error {
	seen := make([]int, c.NumQubits)
	var ops []Qubit
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Kind == KindInvalid {
			return fmt.Errorf("gate %d: invalid kind", i)
		}
		if g.Kind != KindBarrier && len(g.Targets) == 0 {
			return fmt.Errorf("gate %d (%s): no targets", i, g.Kind)
		}
		switch g.Kind {
		case KindCNOT:
			if g.Control == NoQubit || len(g.Targets) != 1 {
				return fmt.Errorf("gate %d: cnot needs control and exactly one target", i)
			}
		case KindCXX:
			if g.Control == NoQubit || len(g.Targets) < 1 {
				return fmt.Errorf("gate %d: cxx needs control and targets", i)
			}
		case KindInjectT, KindInjectTdag:
			if len(g.Targets) != 1 {
				return fmt.Errorf("gate %d: inject needs exactly one data target", i)
			}
		case KindMove:
			if g.Control == NoQubit || g.Dest == NoQubit {
				return fmt.Errorf("gate %d: move needs source and destination", i)
			}
			if len(g.Targets) != 1 || g.Targets[0] != g.Dest {
				return fmt.Errorf("gate %d: move target must mirror its destination", i)
			}
		}
		ops = g.AppendOperands(ops[:0])
		for _, q := range ops {
			if q < 0 || int(q) >= c.NumQubits {
				return fmt.Errorf("gate %d (%s): qubit %d out of range [0,%d)", i, g.Kind, q, c.NumQubits)
			}
			if seen[q] == i+1 {
				return fmt.Errorf("gate %d (%s): duplicate operand q%d", i, g.Kind, q)
			}
			seen[q] = i + 1
		}
	}
	return nil
}

// CountKind returns how many gates of kind k the circuit contains.
//
//deadcheck:keep gate censuses in the tests of bravyi, circuits, qasm, scaffold, sched, protocols, stitch and workload
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].Kind == k {
			n++
		}
	}
	return n
}

// TwoQubitGateCount returns the number of braid-requiring gates.
func (c *Circuit) TwoQubitGateCount() int {
	n := 0
	for i := range c.Gates {
		if c.Gates[i].Kind.IsTwoQubit() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the circuit. Operand slices are carved
// from one backing array, not allocated per gate.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{NumQubits: c.NumQubits}
	total := 0
	for i := range c.Gates {
		total += len(c.Gates[i].Targets)
	}
	backing := make([]Qubit, 0, total)
	out.Gates = make([]Gate, len(c.Gates))
	for i := range c.Gates {
		g := c.Gates[i]
		start := len(backing)
		backing = append(backing, g.Targets...)
		g.Targets = backing[start:len(backing):len(backing)]
		out.Gates[i] = g
	}
	out.Names = append([]string(nil), c.Names...)
	return out
}

// String renders the program, one gate per line, for debugging and golden
// tests.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %d qubits, %d gates\n", c.NumQubits, len(c.Gates))
	for i := range c.Gates {
		b.WriteString(c.Gates[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}
