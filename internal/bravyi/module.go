package bravyi

import "magicstate/internal/circuit"

// Module records one Bravyi-Haah (3k+8) -> k instance inside a factory.
type Module struct {
	Round   int // 1-based round
	Index   int // global module index across the factory
	InRound int // index within its round
	Group   int // wiring group within its round (§II.G g_r/m_r structure)

	// Raw[s] is the qubit sourcing input slot s (a fresh raw-state tile in
	// round 1, a previous round's output qubit afterwards).
	Raw []circuit.Qubit
	// Anc holds the k+5 ancillary qubits, Out the k output qubits.
	Anc []circuit.Qubit
	Out []circuit.Qubit

	// RawConsumer[s] is the index (into Circuit.Gates) of the injection
	// gate that consumes Raw[s]; port reassignment rewrites its Control.
	RawConsumer []int

	// GateStart/GateEnd delimit the module's gates [GateStart, GateEnd).
	GateStart, GateEnd int
}

// emitModule appends the Fig. 5 module body for the given registers to c,
// tagging every gate with round and module indices. It fills
// m.RawConsumer.
//
// The published listing indexes raw_states[2*i+8+i] inside the tail, which
// double-consumes low-index states for every K; we instead consume the
// remaining block raw[2(K+4) .. 3K+7] so that each of the 3K+8 inputs is
// injected exactly once, matching the protocol's input arity.
func emitModule(c *circuit.Circuit, m *Module) {
	k := len(m.Out)
	anc, out, raw := m.Anc, m.Out, m.Raw
	m.GateStart = len(c.Gates)
	m.RawConsumer = make([]int, len(raw))
	for i := range m.RawConsumer {
		m.RawConsumer[i] = -1
	}

	tag := func(from int) {
		for i := from; i < len(c.Gates); i++ {
			c.Gates[i].Round = m.Round
			c.Gates[i].Module = m.Index
		}
	}

	// Head: superposition preparation and verification skeleton.
	c.H(anc[0])
	c.H(anc[1])
	c.H(anc[2])
	for i := 0; i < k; i++ {
		c.H(out[i])
	}
	c.CNOT(anc[1], anc[3])
	c.CNOT(anc[2], anc[4])
	c.CXX(anc[0], anc[1:k+1])

	// Tail: entangle each output with the ancilla chain and inject one
	// raw state per output.
	for i := 0; i < k; i++ {
		c.CNOT(out[i], anc[5+i])
		m.RawConsumer[2*(k+4)+i] = len(c.Gates)
		c.InjectT(raw[2*(k+4)+i], anc[5+i])
		c.CNOT(anc[5+i], anc[4+i])
		c.CNOT(anc[3+i], anc[5+i])
		c.CNOT(anc[4+i], anc[3+i])
	}

	// Syndrome block: T then T-dagger injections around the big CXX.
	for i := 1; i < k+5; i++ {
		m.RawConsumer[2*i-2] = len(c.Gates)
		c.InjectT(raw[2*i-2], anc[i])
	}
	c.CXX(anc[0], anc[1:k+5])
	for i := 1; i < k+5; i++ {
		m.RawConsumer[2*i-1] = len(c.Gates)
		c.InjectTdag(raw[2*i-1], anc[i])
	}

	// Error check: measure every ancilla in the X basis.
	for i := 0; i < k+5; i++ {
		c.MeasX(anc[i])
	}

	tag(m.GateStart)
	m.GateEnd = len(c.Gates)
}

// GatesPerModule returns the closed-form gate count of one module body:
// (3+k) H + (2+4k) CNOT + 2 CXX + (2k+4) injectT + (k+4) injectTdag +
// (k+5) MeasX = 9k + 20.
func GatesPerModule(k int) int { return 9*k + 20 }

// gateCounts returns the exact length of Build's gate list and how many
// of those gates are permutation Moves: every module body, 3K+8 Moves
// feeding each module after round 1, and one barrier between consecutive
// rounds when Barriers is set.
func (p Params) gateCounts() (gates, moves int) {
	for r := 1; r <= p.Levels; r++ {
		mods := p.ModulesInRound(r)
		gates += mods * GatesPerModule(p.K)
		if r > 1 {
			moves += mods * (3*p.K + 8)
		}
	}
	gates += moves
	if p.Barriers {
		gates += p.Levels - 1
	}
	return gates, moves
}
