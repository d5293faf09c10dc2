// Package circuit defines the logical-circuit intermediate representation
// shared by the whole toolchain: gate kinds, quantum programs as ordered
// gate sequences, the data-dependency DAG, and validation. It mirrors the
// gate set of the paper's Scaffold listing (Fig. 5): H, CNOT, the
// single-control multi-target CXX, probabilistic magic-state injection
// (injectT / injectTdag), X-basis measurement, plus Move (state relocation
// braids used by inter-round permutation) and Barrier (the multi-target
// CNOT scheduling fence of §V.A).
package circuit

import "fmt"

// Qubit identifies a logical qubit within a circuit. Qubits are dense
// indices in [0, Circuit.NumQubits).
type Qubit int

// Kind enumerates the gate vocabulary.
type Kind int

// Gate kinds. Two-qubit interactions (CNOT, CXX, InjectT, InjectTdag,
// Move) become braids on the surface-code mesh; the rest are local tile
// operations.
const (
	KindInvalid    Kind = iota
	KindPrepZ           // initialize |0>
	KindPrepX           // initialize |+>
	KindH               // Hadamard
	KindX               // Pauli X
	KindZ               // Pauli Z
	KindS               // phase gate (decomposes to two T's, §II.E)
	KindT               // T rotation (consumes a magic state when fault tolerant)
	KindCNOT            // controlled NOT braid
	KindCXX             // single-control multi-target CNOT braid
	KindInjectT         // probabilistic T-state injection into target
	KindInjectTdag      // adjoint injection
	KindMeasX           // X-basis measurement
	KindMeasZ           // Z-basis measurement
	KindMove            // relocate a logical state to an empty tile (permutation braid)
	KindBarrier         // scheduling fence: multi-target CNOT from a |0> ancilla (§V.A)
)

var kindNames = map[Kind]string{
	KindInvalid:    "invalid",
	KindPrepZ:      "prepz",
	KindPrepX:      "prepx",
	KindH:          "h",
	KindX:          "x",
	KindZ:          "z",
	KindS:          "s",
	KindT:          "t",
	KindCNOT:       "cnot",
	KindCXX:        "cxx",
	KindInjectT:    "injectT",
	KindInjectTdag: "injectTdag",
	KindMeasX:      "measx",
	KindMeasZ:      "measz",
	KindMove:       "move",
	KindBarrier:    "barrier",
}

// String returns the lower-case mnemonic for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsTwoQubit reports whether the kind interacts two or more qubits and
// therefore requires a braid (or braid tree) on the mesh.
func (k Kind) IsTwoQubit() bool {
	switch k {
	case KindCNOT, KindCXX, KindInjectT, KindInjectTdag, KindMove:
		return true
	}
	return false
}

// Gate is one instruction. For CNOT, Control is the control and Targets
// holds the single target. For CXX, Targets holds every target. For
// InjectT/InjectTdag, Control is the raw-state source (NoQubit when the
// raw state is ambient, i.e. freshly injected rather than a prior-round
// output) and Targets[0] is the data qubit. For Move, Control is the
// source qubit and Dest is the destination tile slot qubit id. Barrier
// lists the fenced qubits in Targets.
type Gate struct {
	Kind    Kind
	Control Qubit   // NoQubit when unused
	Targets []Qubit // at least one entry except for Barrier over no qubits
	Dest    Qubit   // Move only: destination slot id (a qubit id reserved for the slot)
	Round   int     // distillation round this gate belongs to (1-based; 0 = unassigned)
	Module  int     // module index within the factory (-1 = none, e.g. barriers)
}

// NoQubit marks an unused qubit operand.
const NoQubit Qubit = -1

// Operands returns every qubit the gate touches, in a deterministic order.
// This is the hazard set used to build dependencies: the paper's simulator
// treats any shared qubit between consecutive instructions as a true
// dependency (§VIII.A).
func (g *Gate) Operands() []Qubit {
	return g.AppendOperands(make([]Qubit, 0, len(g.Targets)+1))
}

// AppendOperands appends the gate's operands to buf in the same order as
// Operands and returns the extended slice. Hot callers (dependency
// analysis, interaction-graph extraction) pass a reused buffer to avoid a
// per-gate allocation.
func (g *Gate) AppendOperands(buf []Qubit) []Qubit {
	if g.Control != NoQubit {
		buf = append(buf, g.Control)
	}
	return append(buf, g.Targets...) // for Move, Targets[0] == Dest
}

// String renders the gate in a compact assembly-like form.
func (g *Gate) String() string {
	switch g.Kind {
	case KindCNOT:
		return fmt.Sprintf("cnot q%d, q%d", g.Control, g.Targets[0])
	case KindCXX:
		return fmt.Sprintf("cxx q%d -> %d targets", g.Control, len(g.Targets))
	case KindInjectT, KindInjectTdag:
		if g.Control == NoQubit {
			return fmt.Sprintf("%s raw, q%d", g.Kind, g.Targets[0])
		}
		return fmt.Sprintf("%s q%d, q%d", g.Kind, g.Control, g.Targets[0])
	case KindMove:
		return fmt.Sprintf("move q%d -> slot%d", g.Control, g.Dest)
	case KindBarrier:
		return fmt.Sprintf("barrier over %d qubits", len(g.Targets))
	default:
		if len(g.Targets) == 1 {
			return fmt.Sprintf("%s q%d", g.Kind, g.Targets[0])
		}
		return fmt.Sprintf("%s over %d qubits", g.Kind, len(g.Targets))
	}
}
