package mesh

import (
	"fmt"
	"sync"

	"magicstate/internal/circuit"
	"magicstate/internal/layout"
	"magicstate/internal/resource"
)

// Config tunes a simulation run.
type Config struct {
	// Cost supplies per-gate durations; zero value uses resource.DefaultCost.
	Cost resource.CostModel
	// MaxCycles aborts runaway simulations; zero means 100 million cycles.
	MaxCycles int
	// Mode selects the braid routing discipline (default RouteXY).
	Mode RouteMode
	// RouteMargin is how many cells beyond its endpoints' bounding box a
	// braid may route through in RouteBox mode. The zero value means the
	// default of 2 — NOT a zero-margin box; pass ZeroRouteMargin (or any
	// negative value) for a braid confined strictly to its endpoints'
	// bounding box.
	RouteMargin int
	// RecordPaths keeps every braid's claimed cells in Result.Paths so
	// invariants (no two braids overlap in space and time) can be audited
	// after the run.
	RecordPaths bool
	// Style selects the surface-code interaction discipline (§IX future
	// work); the zero value reproduces the paper's braiding model.
	Style InteractionStyle
	// Distance is the code distance d used by the distance-sensitive
	// styles (zero means 7); braiding ignores it.
	Distance int
	// EprCycles is the channel occupancy of teleportation-style
	// entanglement distribution (zero means 2).
	EprCycles int
	// Defects names the defective tiles of a heterogeneous mesh in the
	// canonical layout.DefectMap codec ("x,y;x,y" sorted row-major).
	// Defective tiles expose no braid ports, their surrounding channel
	// cells are permanently unroutable, and placements hosting a qubit
	// on one are rejected. Empty means a defect-free mesh.
	Defects string
}

// ZeroRouteMargin requests a true zero-margin routing box in RouteBox
// mode. Config.RouteMargin's zero value historically (and still) means
// "use the default margin of 2", which made an actual zero-margin box
// unexpressible; this sentinel resolves the ambiguity.
//
//deadcheck:keep RouteMargin's zero-margin sentinel, pinned by mesh's TestRouteMarginSentinel; it goes when the RouteMargin knob does
const ZeroRouteMargin = -1

// RouteMode selects how braids claim paths.
type RouteMode int

const (
	// RouteXY is the paper's braid model (Fig. 1): each braid follows a
	// dimension-ordered rectilinear path (XY or YX candidate); crossing
	// braids cannot run simultaneously and never detour.
	RouteXY RouteMode = iota
	// RouteBox allows shortest-path detours within the braid endpoints'
	// bounding box plus RouteMargin cells.
	RouteBox
	// RouteAdaptive allows braids to route anywhere on the machine — an
	// idealized congestion-avoiding router used for ablation.
	RouteAdaptive
)

func (cfg *Config) fill() {
	if cfg.Cost == (resource.CostModel{}) {
		cfg.Cost = resource.DefaultCost()
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 100_000_000
	}
	if cfg.RouteMargin == 0 {
		cfg.RouteMargin = 2
	} else if cfg.RouteMargin < 0 {
		cfg.RouteMargin = 0
	}
	cfg.fillStyle()
}

// Result reports a completed simulation.
type Result struct {
	// Latency is the cycle at which the last gate finishes.
	Latency int
	// Start and End give per-gate timing (End exclusive).
	Start, End []int
	// Stalls counts braid start attempts rejected for lack of a
	// conflict-free path. The event-driven engine only re-attempts a
	// blocked braid once the reservations it was waiting on could have
	// expired, so this counts distinct meaningful rejections rather than
	// every hopeless per-cycle retry.
	Stalls int
	// Area is the bounding-box tile area of the placement simulated.
	Area int
	// Paths holds, per gate, the channel cells its braid reserved (nil
	// for local gates, and only populated when Config.RecordPaths).
	Paths [][]int
	// HoldEnd gives, per gate, the cycle its channel reservation was
	// released (equal to End under braiding and lattice surgery; earlier
	// under teleportation). Only populated when Config.RecordPaths.
	HoldEnd []int
}

// CheckNoOverlaps verifies the core braid invariant on a recorded run: no
// two gates whose execution windows overlap in time reserved the same
// channel cell. It returns an error naming the first violation.
func (r *Result) CheckNoOverlaps() error {
	if r.Paths == nil {
		return fmt.Errorf("mesh: run did not record paths")
	}
	type claim struct {
		gate       int
		start, end int
	}
	byCell := make(map[int][]claim)
	holdEnd := func(gi int) int {
		if r.HoldEnd != nil {
			return r.HoldEnd[gi]
		}
		return r.End[gi]
	}
	for gi, path := range r.Paths {
		for _, ci := range path {
			for _, prev := range byCell[ci] {
				if r.Start[gi] < prev.end && prev.start < holdEnd(gi) {
					return fmt.Errorf("mesh: gates %d [%d,%d) and %d [%d,%d) share cell %d",
						prev.gate, prev.start, prev.end, gi, r.Start[gi], holdEnd(gi), ci)
				}
			}
			byCell[ci] = append(byCell[ci], claim{gate: gi, start: r.Start[gi], end: holdEnd(gi)})
		}
	}
	return nil
}

// Volume returns the space-time volume of the run.
func (r *Result) Volume() resource.Volume {
	return resource.Volume{Area: r.Area, Latency: r.Latency}
}

// simPool recycles Simulators across Simulate calls so even one-shot
// callers reuse arenas instead of reallocating lattice, router and queue
// state per run. Each Get hands a goroutine an exclusive instance, so the
// sweep engine's parallel workers share the pool safely.
var simPool = sync.Pool{New: func() any { return NewSimulator() }}

// Simulate executes c on the braid mesh defined by p and returns timing.
// It is a thin wrapper around a pooled Simulator; callers that simulate
// in a loop can hold their own Simulator to also reuse the cached
// dependency DAG and lattice across calls.
func Simulate(c *circuit.Circuit, p *layout.Placement, cfg Config) (*Result, error) {
	s := simPool.Get().(*Simulator)
	res, err := s.Simulate(c, p, cfg)
	simPool.Put(s)
	return res, err
}
