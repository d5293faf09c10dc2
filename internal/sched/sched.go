// Package sched implements the commutativity-aware gate reordering of
// §V.A: CNOTs sharing a control commute, as do disjoint gates, and
// SiftEarlier moves each gate as early in program order as commutation
// allows. The braid simulator performs its own list scheduling at
// execution time; this package supplies the compile-time reordering the
// paper's scheduling discussion draws on.
package sched

import "magicstate/internal/circuit"

// Commute reports whether adjacent gates a and b may be exchanged without
// changing circuit semantics. Disjoint gates always commute. Two CNOT-like
// gates sharing only their controls commute (control-control overlap is
// diagonal in the same basis); sharing a target with a target also
// commutes for pure CNOTs. Everything else is conservatively ordered.
// Barriers never commute with anything they fence.
func Commute(a, b *circuit.Gate) bool {
	if a.Kind == circuit.KindBarrier || b.Kind == circuit.KindBarrier {
		return false
	}
	shared := sharedOperands(a, b)
	if len(shared) == 0 {
		return true
	}
	if !isCNOTLike(a.Kind) || !isCNOTLike(b.Kind) {
		return false
	}
	// Every shared qubit must play the same role (control/control or
	// target/target) in both gates.
	for _, q := range shared {
		ra, rb := roleOf(a, q), roleOf(b, q)
		if ra != rb || ra == roleMixed {
			return false
		}
	}
	return true
}

type role int

const (
	roleControl role = iota
	roleTarget
	roleMixed
)

func isCNOTLike(k circuit.Kind) bool {
	return k == circuit.KindCNOT || k == circuit.KindCXX
}

func roleOf(g *circuit.Gate, q circuit.Qubit) role {
	if g.Control == q {
		return roleControl
	}
	for _, t := range g.Targets {
		if t == q {
			return roleTarget
		}
	}
	return roleMixed
}

func sharedOperands(a, b *circuit.Gate) []circuit.Qubit {
	set := make(map[circuit.Qubit]bool)
	for _, q := range a.Operands() {
		set[q] = true
	}
	var out []circuit.Qubit
	for _, q := range b.Operands() {
		if set[q] {
			out = append(out, q)
		}
	}
	return out
}

// SiftEarlier moves each gate as early in program order as commutation
// allows (a bubble pass repeated to fixpoint, capped for safety). The
// hazard DAG the simulator builds from the reordered program admits more
// parallelism when commuting gates were previously order-serialized. It
// returns a new circuit; the input is untouched.
func SiftEarlier(c *circuit.Circuit) *circuit.Circuit {
	out := c.Clone()
	for pass := 0; pass < 8; pass++ {
		changed := false
		for i := 1; i < len(out.Gates); i++ {
			j := i
			for j > 0 && Commute(&out.Gates[j-1], &out.Gates[j]) && wouldUnblock(out, j) {
				out.Gates[j-1], out.Gates[j] = out.Gates[j], out.Gates[j-1]
				j--
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return out
}

// wouldUnblock limits sifting to exchanges that can actually shorten the
// hazard chain: swapping two gates that share no operands never changes
// the DAG, so skip those to keep the pass cheap and stable.
func wouldUnblock(c *circuit.Circuit, j int) bool {
	return len(sharedOperands(&c.Gates[j-1], &c.Gates[j])) > 0
}
