package mesh

import (
	"fmt"

	"magicstate/internal/circuit"
	"magicstate/internal/resource"
)

// InteractionStyle selects how two-qubit logical operations claim the
// lattice — the surface-code interaction-style study the paper lists as
// future work (§IX, following [1] and [20]). The three styles trade
// latency against channel occupancy:
//
//   - Braiding (the paper's model, Fig. 1): a braid completes in constant
//     time regardless of length but its whole path is exclusive for the
//     full gate duration.
//   - Lattice surgery: merge/split operations take Θ(d) rounds for code
//     distance d, and the ancilla corridor between the patches is
//     likewise exclusive for the full duration. Cheap at small d,
//     increasingly slow at large d.
//   - Teleportation: Bell-pair distribution occupies the channel for only
//     eprCycles, after which the gate completes with local operations
//     while the channel is free for other traffic. Latency still scales
//     with d (the local Bell measurement is a patch operation) but
//     congestion nearly vanishes.
type InteractionStyle int

const (
	// StyleBraiding reproduces the paper's braid model (default).
	StyleBraiding InteractionStyle = iota
	// StyleLatticeSurgery makes every operation's duration scale with
	// the code distance while holding its path exclusively throughout.
	StyleLatticeSurgery
	// StyleTeleportation holds paths only during entanglement
	// distribution; completion is local.
	StyleTeleportation
)

var styleNames = map[InteractionStyle]string{
	StyleBraiding:       "braiding",
	StyleLatticeSurgery: "lattice-surgery",
	StyleTeleportation:  "teleportation",
}

// String names the style for reports.
func (s InteractionStyle) String() string {
	if n, ok := styleNames[s]; ok {
		return n
	}
	return fmt.Sprintf("style(%d)", int(s))
}

// Styles lists every interaction style, in comparison-table order.
func Styles() []InteractionStyle {
	return []InteractionStyle{StyleBraiding, StyleLatticeSurgery, StyleTeleportation}
}

// braidUnit is the base time unit of the braiding cost model: the default
// CostModel expresses local operations as 1 unit (10 cycles), braids as 2
// and injections as 4. The distance-sensitive styles rescale that unit to
// the code distance d, so at d = braidUnit cycles the styles' durations
// coincide and the crossover study (experiments.Styles) pivots around it.
const braidUnit = 10

// eprCycles is the channel occupancy of teleportation-style entanglement
// distribution.
const eprCycles = 2

// styleCycles returns the completion duration and the channel-hold
// duration of gate g under the configured style. For braiding both equal
// the cost model's duration; lattice surgery rescales durations by
// d/braidUnit and holds for the full duration; teleportation holds
// two-qubit channels only for eprCycles while completing after the
// rescaled duration.
func (cfg *Config) styleCycles(g *circuit.Gate) (dur, hold int) {
	base := resource.DefaultCost().GateCycles(g)
	switch cfg.Style {
	case StyleLatticeSurgery:
		dur = scaleByDistance(base, cfg.Distance)
		return dur, dur
	case StyleTeleportation:
		dur = scaleByDistance(base, cfg.Distance)
		if g.Kind.IsTwoQubit() {
			dur += eprCycles
			return dur, eprCycles
		}
		return dur, dur
	default:
		return base, base
	}
}

// scaleByDistance converts a braiding-model duration into a
// distance-d duration, rounding up so nonzero gates never become free.
func scaleByDistance(base, d int) int {
	if base == 0 {
		return 0
	}
	scaled := (base*d + braidUnit - 1) / braidUnit
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}
