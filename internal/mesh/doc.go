// Package mesh is the cycle-accurate surface-code braid network simulator
// (the substrate of §VIII.A, reimplementing the role of the MICRO'17 tool
// [1]). Logical qubit tiles sit on a W x H grid; between and around tiles
// runs a lattice of routing channel cells. A two-qubit gate claims a
// connected path of free channel cells between its endpoint tiles for the
// gate's whole duration; a multi-target CXX claims a connected tree
// touching the control and every target. Braids may not overlap in space
// and time: a gate that cannot claim a conflict-free path stalls until a
// running braid releases its cells (oldest-first arbitration), exactly the
// behaviour the paper's congestion results rest on.
//
// # Entry points
//
// Simulate is the one-shot call: it borrows a pooled Simulator, runs the
// circuit, and returns a freshly allocated Result. Callers that simulate
// repeatedly — the planner's candidate search, the force-directed
// mapper's cost evaluations, stitching, sweep-engine grid points — hold
// a Simulator of their own so the arena state (router scratch, ready
// queues, path buffers, the cached dependency DAG) carries across calls
// instead of being reallocated; see the Simulator type for the event
// loop and reuse rules.
//
// # Knobs
//
// Config selects the routing discipline (RouteMode), the
// gate cost model, and the §IX interaction style (InteractionStyle:
// braiding, lattice surgery, or teleportation — braiding reproduces the
// paper). Every simulation is deterministic in its inputs: the same
// circuit, placement and Config always produce the same Result, which
// is what lets results be memoized in-process (internal/sweep/memo) and
// persisted across processes (internal/store) without changing any
// artifact.
//
// Diagnostics live beside the simulator: CongestionMap aggregates
// per-channel braid occupancy from a recorded run and RenderCongestion
// draws it, the render.go helpers draw placements, and Result.Paths
// (with Config.RecordPaths) retains every braid's claimed cells so
// overlap invariants can be audited after the fact.
package mesh
