// Package force implements the force-directed annealing mapper of
// §VI.B.1. Starting from an initial placement (the paper transforms the
// hand-optimized linear mapping), it iteratively computes three families
// of forces on each vertex of the interaction graph —
//
//   - vertex-vertex attraction toward the centroid of its neighborhood
//     (edge length reduction),
//   - edge-edge repulsion between edge midpoints with inverse-square
//     falloff (edge spacing maximization),
//   - magnetic-dipole rotation derived from a per-timestep 2-coloring of
//     the qubits, preferring (anti-)parallel edges over crossing ones,
//
// — then proposes moving vertices one tile along their net force, gated by
// a cost function over average edge length, edge spacing and crossing
// count. When the local search converges, community-level escape moves
// (repulsing whole communities apart or attracting a fragmented
// community's k-means clusters together) kick the mapping out of the
// local minimum, as the paper describes.
//
// The engine is exposed two ways: a caller-owned Annealer that keeps all
// annealing scratch (occupancy grid, proposal order, edge samples,
// community membership) alive across calls, and a package-level Anneal
// that borrows a pooled Annealer for one-shot use. With Options.Restarts
// above one, independently seeded runs execute concurrently on a bounded
// worker pool; per-restart rng streams are derived from the point seed by
// a SplitMix64 step, so the chosen result depends only on (inputs, seed,
// Restarts) — never on scheduling or worker count.
package force

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"magicstate/internal/circuit"
	"magicstate/internal/graph"
	"magicstate/internal/kmeans"
	"magicstate/internal/layout"
	"magicstate/internal/stats"
)

// Options tunes the annealer.
type Options struct {
	// Iterations caps force sweeps; 0 picks a size-dependent default.
	Iterations int
	// Seed drives proposal order, community detection and k-means.
	Seed int64
	// WAttract, WRepulse, WDipole weight the three force families.
	// Zero values take defaults (1, 1, 1).
	WAttract, WRepulse, WDipole float64
	// CostSample caps how many other edges are consulted when estimating
	// a move's effect on crossings and spacing (0 = 400); keeps large
	// factories tractable, as the paper's own O(m^2) analysis warns.
	CostSample int
	// MarginRows adds this many free rows and columns on all four sides
	// of the initial placement so the line can fold into 2-D; 0 picks 4.
	MarginRows int
	// DisableDipole and DisableCommunity switch off individual heuristics
	// for ablation benches.
	DisableDipole    bool
	DisableCommunity bool
	// Restarts runs this many independently seeded annealing runs and
	// keeps the lowest-cost result (ties broken by restart index, so the
	// pick is deterministic). 0 or 1 runs the single historical stream,
	// keeping existing artifacts byte-identical. Restart 0 always uses
	// the stream rand.NewSource(Seed) itself would produce; restart r>0
	// uses the SplitMix64-derived child stream of (Seed, r).
	Restarts int
	// RestartWorkers caps how many restarts run concurrently (0 =
	// GOMAXPROCS). Purely a throughput knob: results never depend on it.
	RestartWorkers int
}

func (o *Options) fill(n int) {
	if o.Iterations == 0 {
		switch {
		case n <= 200:
			o.Iterations = 120
		case n <= 1000:
			o.Iterations = 40
		default:
			o.Iterations = 30
		}
	}
	if o.WAttract == 0 {
		o.WAttract = 1
	}
	if o.WRepulse == 0 {
		o.WRepulse = 1
	}
	if o.WDipole == 0 {
		o.WDipole = 1
	}
	if o.CostSample == 0 {
		o.CostSample = 400
	}
	if o.MarginRows == 0 {
		o.MarginRows = 4
	}
}

// Annealer is a reusable force-directed annealing engine. It owns a pool
// of per-run scratch arenas (dense occupancy grid, proposal-order buffer,
// edge-sample sets, community membership index), so repeated Anneal calls
// — across sweep points or across the restarts of one point — allocate
// almost nothing. An Annealer is safe for concurrent use; each concurrent
// run borrows its own arena from the pool.
type Annealer struct {
	pool sync.Pool
}

// NewAnnealer returns an engine with an empty arena pool.
func NewAnnealer() *Annealer { return &Annealer{} }

func (a *Annealer) acquire() *runState {
	if v := a.pool.Get(); v != nil {
		return v.(*runState)
	}
	return &runState{}
}

func (a *Annealer) release(st *runState) { a.pool.Put(st) }

// Anneal returns an optimized copy of init. c supplies the schedule used
// for the dipole 2-coloring; it must be the circuit g was built from.
// With opt.Restarts > 1, independently seeded runs execute concurrently
// and the lowest-cost placement wins (ties to the lowest restart index);
// the result is byte-identical no matter how many workers ran them.
func (a *Annealer) Anneal(g *graph.Graph, c *circuit.Circuit, init *layout.Placement, opt Options) *layout.Placement {
	opt.fill(g.N)
	var poles []int
	if !opt.DisableDipole {
		poles = graph.Poles(c)
	}
	restarts := opt.Restarts
	if restarts < 1 {
		restarts = 1
	}
	if restarts == 1 {
		st := a.acquire()
		p := st.run(g, init, opt, restartRNG(opt.Seed, 0), poles)
		a.release(st)
		return p
	}

	results := make([]*layout.Placement, restarts)
	costs := make([]float64, restarts)
	workers := opt.RestartWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > restarts {
		workers = restarts
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := a.acquire()
			defer a.release(st)
			for {
				r := int(next.Add(1)) - 1
				if r >= restarts {
					return
				}
				p := st.run(g, init, opt, restartRNG(opt.Seed, r), poles)
				results[r] = p
				costs[r] = placementCost(g, p)
			}
		}()
	}
	wg.Wait()
	best := 0
	for r := 1; r < restarts; r++ {
		if costs[r] < costs[best] {
			best = r
		}
	}
	return results[best]
}

// restartRNG derives restart r's rng stream. Restart 0 is the plain
// seeded stream every pre-restart artifact was produced with; higher
// restarts get decorrelated SplitMix64 child streams. Deriving streams
// from (seed, r) alone — never from which worker runs them — is what
// makes parallel restarts schedule-independent.
func restartRNG(seed int64, r int) *rand.Rand {
	if r == 0 {
		return rand.New(rand.NewSource(seed))
	}
	return stats.SplitRNG(seed, int64(r))
}

// placementCost scores a finished restart for the best-of pick: total
// weighted edge length plus the crossing penalty over every edge pair,
// the global form of the sampled local cost the sweeps optimize. It is a
// pure function of the placement, so comparing restarts by it (ties to
// the lowest index) is deterministic.
func placementCost(g *graph.Graph, p *layout.Placement) float64 {
	const crossWeight = 4.0
	cost := layout.WeightedManhattan(g, p)
	segs := layout.Segments(g, p)
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			if layout.SegmentsConflict(segs[i], segs[j]) {
				cost += crossWeight
			}
		}
	}
	return cost
}

var defaultAnnealer = NewAnnealer()

// Anneal returns an optimized copy of init using a shared pooled engine;
// it is the one-shot form of Annealer.Anneal. c supplies the schedule
// used for the dipole 2-coloring; it must be the circuit g was built
// from.
func Anneal(g *graph.Graph, c *circuit.Circuit, init *layout.Placement, opt Options) *layout.Placement {
	return defaultAnnealer.Anneal(g, c, init, opt)
}

// runState carries the bookkeeping of one annealing run. All of it is
// reusable scratch: the arrays grow to the high-water mark of the runs
// they have served and are reset, not reallocated, on the next run.
type runState struct {
	g   *graph.Graph
	p   layout.Placement // owned canvas; Pos is the run's working copy
	opt Options
	rng *rand.Rand
	// occ is a dense W*H occupancy grid over the canvas: 0 means free,
	// v+1 means qubit v sits on the tile.
	occ []int32
	// ebox holds every interaction edge's integer bounding box under the
	// current placement. buildOcc rebuilds it with the occupancy grid;
	// apply, the only position write of a run, refreshes the edges
	// incident to the vertices it moves.
	ebox []box
	// edgeDraw and vertexDraw replicate rng.Intn(len(g.Edges)) and
	// rng.Intn(g.N) with their rejection bounds precomputed.
	edgeDraw, vertexDraw intner
	// perm receives the sweep proposal order (rand.Perm replicated into
	// reused storage).
	perm []int
	// allEdges is the identity edge list [0..m) used as the comparison
	// set when the whole graph fits under CostSample; sample receives
	// rng-drawn subsets when it does not.
	allEdges []int
	sample   []int
	// near lists, in sample order, the comparison edges keep found close
	// enough to the move to add to either phase's cost.
	near []int
	// osegs/omidX/omidY/oboxes cache the near edges' segments, midpoints
	// and bounding boxes for one phase of a move (see prepare), so the
	// incident x near double loop reads them instead of re-deriving
	// placement lookups and float divisions per pair.
	osegs        []layout.Segment
	omidX, omidY []float64
	oboxes       []box
	// memberStart/memberCur/memberList index community members in CSR
	// form: members of community cid are
	// memberList[memberStart[cid]:memberStart[cid+1]].
	memberStart []int32
	memberCur   []int32
	memberList  []int
	// pts is the k-means scratch for communityKick.
	pts []kmeans.Point
}

// run executes one annealing run against the reused arenas and returns a
// freshly cloned result (the arena canvas never escapes). The rng draw
// sequence exactly matches the historical single-shot implementation:
// community detection first, then per-sweep proposal order, force
// sampling and move gating in program order.
func (st *runState) run(g *graph.Graph, init *layout.Placement, opt Options, rng *rand.Rand, poles []int) *layout.Placement {
	st.load(g, init, opt, rng)
	var comm []int
	commCount := 0
	if !opt.DisableCommunity {
		comm, commCount = graph.Communities(g, rng)
	}

	stuck := 0
	for iter := 0; iter < opt.Iterations; iter++ {
		// Community attraction alternates with force sweeps: it compacts
		// each community around its centroid with forced moves, escaping
		// the 1-D local minima the cost-gated sweep cannot leave.
		if !opt.DisableCommunity && commCount > 1 && iter%2 == 1 {
			st.communityAttract(comm, commCount)
		}
		moved := st.sweep(poles)
		if moved == 0 {
			stuck++
			if !opt.DisableCommunity && commCount > 1 {
				st.communityKick(comm, commCount)
			}
			if stuck >= 3 {
				break
			}
		} else {
			stuck = 0
		}
	}
	st.p.Normalize()
	out := st.p.Clone()
	st.g, st.rng = nil, nil
	return out
}

// load points the run at g and opt and copies init onto an expanded
// canvas, MarginRows wider on all four sides so vertices can leave the
// initial hull, with its occupancy grid. It draws nothing from rng.
func (st *runState) load(g *graph.Graph, init *layout.Placement, opt Options, rng *rand.Rand) {
	st.g, st.opt, st.rng = g, opt, rng
	st.edgeDraw, st.vertexDraw = newIntner(len(g.Edges)), newIntner(g.N)
	n := len(init.Pos)
	if cap(st.p.Pos) < n {
		st.p.Pos = make([]layout.Point, n)
	}
	st.p.Pos = st.p.Pos[:n]
	copy(st.p.Pos, init.Pos)
	st.p.W, st.p.H = init.W, init.H
	st.p.Normalize()
	margin := opt.MarginRows
	for q := range st.p.Pos {
		st.p.Pos[q].X += margin
		st.p.Pos[q].Y += margin
	}
	st.p.W += 2 * margin
	st.p.H += 2 * margin
	st.buildOcc()
}

// buildOcc resets the occupancy grid and the edge-box cache to the
// current canvas.
func (st *runState) buildOcc() {
	need := st.p.W * st.p.H
	if cap(st.occ) < need {
		st.occ = make([]int32, need)
	} else {
		st.occ = st.occ[:need]
		for i := range st.occ {
			st.occ[i] = 0
		}
	}
	for q := range st.p.Pos {
		pt := st.p.Pos[q]
		st.occ[pt.Y*st.p.W+pt.X] = int32(q) + 1
	}
	if cap(st.ebox) < len(st.g.Edges) {
		st.ebox = make([]box, len(st.g.Edges))
	}
	st.ebox = st.ebox[:len(st.g.Edges)]
	for ei, e := range st.g.Edges {
		st.ebox[ei] = edgeBox(st.p.At(e.U), st.p.At(e.V))
	}
}

// refresh recomputes the cached boxes of v's incident edges.
func (st *runState) refresh(v int) {
	for _, ei := range st.g.Incident(v) {
		e := st.g.Edges[ei]
		st.ebox[ei] = edgeBox(st.p.At(e.U), st.p.At(e.V))
	}
}

// forceOn computes the net force vector on vertex v.
func (st *runState) forceOn(v int, poles []int) (fx, fy float64) {
	pv := st.p.At(v)
	// Attraction to neighborhood centroid.
	var cx, cy, wsum float64
	st.g.Neighbors(v, func(u int, w float64) {
		pu := st.p.At(u)
		cx += w * float64(pu.X)
		cy += w * float64(pu.Y)
		wsum += w
	})
	if wsum > 0 {
		fx += st.opt.WAttract * (cx/wsum - float64(pv.X))
		fy += st.opt.WAttract * (cy/wsum - float64(pv.Y))
	}
	// Edge-edge repulsion: push v's edges' midpoints away from sampled
	// other midpoints, inverse-square in midpoint distance.
	if len(st.g.Edges) > 1 {
		sample := st.opt.CostSample
		for _, ei := range st.g.Incident(v) {
			mvx, mvy := st.midpoint(ei)
			for s := 0; s < sample; s++ {
				oi := st.edgeDraw.draw(st.rng)
				if oi == ei {
					continue
				}
				mox, moy := st.midpoint(oi)
				dx, dy := mvx-mox, mvy-moy
				d2 := dx*dx + dy*dy
				if d2 < 0.25 {
					d2 = 0.25
				}
				if d2 > 64 { // cutoff: distant edges contribute nothing
					continue
				}
				inv := st.opt.WRepulse / d2
				norm := math.Sqrt(d2)
				fx += inv * dx / norm
				fy += inv * dy / norm
			}
			if sample > 8 {
				sample = 8 // first incident edge dominates; keep the rest cheap
			}
		}
	}
	// Dipole rotation: like poles repel, opposite poles attract, with
	// inverse-square falloff, over a sample of vertices.
	if poles != nil {
		for s := 0; s < 32; s++ {
			u := st.vertexDraw.draw(st.rng)
			if u == v {
				continue
			}
			pu := st.p.At(u)
			dx := float64(pv.X - pu.X)
			dy := float64(pv.Y - pu.Y)
			d2 := dx*dx + dy*dy
			if d2 < 0.25 {
				d2 = 0.25
			}
			if d2 > 36 {
				continue
			}
			sign := -1.0 // opposite poles attract (pull toward u)
			if poles[v] == poles[u] {
				sign = 1.0
			}
			inv := st.opt.WDipole * sign / d2
			norm := math.Sqrt(d2)
			fx += inv * dx / norm
			fy += inv * dy / norm
		}
	}
	return fx, fy
}

// midpoint reads edge ei's midpoint off its cached box: the box's
// min+max is the endpoints' sum, so the value is bit-identical to the
// one the endpoints give.
func (st *runState) midpoint(ei int) (float64, float64) {
	b := st.ebox[ei]
	return float64(b.x0+b.x1) / 2, float64(b.y0+b.y1) / 2
}

// sweep proposes one move per vertex along its force and returns how many
// were accepted.
func (st *runState) sweep(poles []int) int {
	order := st.permInto()
	moved := 0
	for _, v := range order {
		fx, fy := st.forceOn(v, poles)
		if fx == 0 && fy == 0 {
			continue
		}
		step := layout.Point{X: intSign(fx), Y: intSign(fy)}
		// Prefer the dominant axis; fall back to the other.
		if math.Abs(fx) < math.Abs(fy) {
			if st.tryMove(v, layout.Point{X: 0, Y: step.Y}) || st.tryMove(v, layout.Point{X: step.X, Y: 0}) {
				moved++
			}
		} else {
			if st.tryMove(v, layout.Point{X: step.X, Y: 0}) || st.tryMove(v, layout.Point{X: 0, Y: step.Y}) {
				moved++
			}
		}
	}
	return moved
}

// permInto replicates rand.Perm into reused storage — including the i==0
// Intn(1) draw the standard library keeps for stream compatibility — so
// sweeps consume exactly the rng sequence the historical rng.Perm call
// did.
func (st *runState) permInto() []int {
	n := st.g.N
	if cap(st.perm) < n {
		st.perm = make([]int, n)
	}
	m := st.perm[:n]
	for i := 0; i < n; i++ {
		j := st.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

func intSign(f float64) int {
	switch {
	case f > 0.25:
		return 1
	case f < -0.25:
		return -1
	}
	return 0
}

// tryMove attempts to move v by delta (to a free tile, or swapping with
// the occupant) and keeps the move only if the sampled cost does not
// increase.
func (st *runState) tryMove(v int, delta layout.Point) bool {
	if delta == (layout.Point{}) {
		return false
	}
	from := st.p.At(v)
	to := layout.Point{X: from.X + delta.X, Y: from.Y + delta.Y}
	if to.X < 0 || to.X >= st.p.W || to.Y < 0 || to.Y >= st.p.H {
		return false
	}
	o := st.occ[to.Y*st.p.W+to.X]
	occupant, swap := int(o)-1, o != 0
	// Sample the comparison edge set once so before/after scores differ
	// only through the move, not through sampling noise.
	st.keep(st.sampleEdgeSet(), v, occupant, swap)
	st.prepare()
	before := st.localCost(v)
	if swap {
		before += st.localCost(occupant)
	}
	st.apply(v, to, occupant, swap, from)
	st.prepare()
	after := st.localCost(v)
	if swap {
		after += st.localCost(occupant)
	}
	if after <= before {
		return true
	}
	// Revert.
	st.apply(v, from, occupant, swap, to)
	return false
}

func (st *runState) apply(v int, to layout.Point, occupant int, swap bool, from layout.Point) {
	w := st.p.W
	if swap {
		st.p.Set(occupant, from)
		st.occ[from.Y*w+from.X] = int32(occupant) + 1
	} else {
		st.occ[from.Y*w+from.X] = 0
	}
	st.p.Set(v, to)
	st.occ[to.Y*w+to.X] = int32(v) + 1
	st.refresh(v)
	if swap {
		st.refresh(occupant)
	}
}

// sampleEdgeSet draws the comparison edges used for one move evaluation.
// Small graphs compare against every edge (the prebuilt identity list);
// large ones against a random subset of CostSample edges drawn into
// reused storage.
func (st *runState) sampleEdgeSet() []int {
	m := len(st.g.Edges)
	if m <= st.opt.CostSample {
		if len(st.allEdges) != m {
			if cap(st.allEdges) < m {
				st.allEdges = make([]int, m)
			}
			st.allEdges = st.allEdges[:m]
			for i := range st.allEdges {
				st.allEdges[i] = i
			}
		}
		return st.allEdges
	}
	if cap(st.sample) < st.opt.CostSample {
		st.sample = make([]int, st.opt.CostSample)
	}
	sample := st.sample[:st.opt.CostSample]
	for i := range sample {
		sample[i] = st.edgeDraw.draw(st.rng)
	}
	return sample
}

// spacingReach is the midpoint distance at which localCost's spacing
// term reaches zero, and so also the box gap from which a pair of
// segments provably adds nothing to the cost.
const spacingReach = 8

// box is a segment's integer bounding box.
type box struct{ x0, y0, x1, y1 int32 }

func edgeBox(a, b layout.Point) box {
	return box{int32(min(a.X, b.X)), int32(min(a.Y, b.Y)), int32(max(a.X, b.X)), int32(max(a.Y, b.Y))}
}

// intner draws from [0, n) exactly as rand.Intn(n) does for n < 1<<31:
// Int31n's rejection loop over r.Int31(), with its bound computed once
// instead of per draw. For a power of two the bound is never exceeded and
// v%n equals Int31n's mask, so every n consumes the stream identically.
type intner struct{ n, max int32 }

// newIntner returns the drawer for n; for n <= 0 it is the zero intner,
// whose draw panics as rand.Intn would.
func newIntner(n int) intner {
	if n <= 0 {
		return intner{}
	}
	return intner{int32(n), int32((1<<31 - 1) - (1<<31)%uint32(n))}
}

func (d intner) draw(r *rand.Rand) int {
	v := r.Int31()
	for v > d.max {
		v = r.Int31()
	}
	return int(v % d.n)
}

// keep scans a move's comparison sample once and records in st.near, in
// sample order, the edges whose cached box comes within spacingReach+1
// tiles of the union of the boxes of v's (and, on a swap, occupant's)
// incident edges. A move shifts each moved vertex by at most one tile per
// axis, so no incident box grows by more than one tile toward an edge
// outside the union, and only incident edges' boxes change: every pair
// localCost keeps in either phase of the move is on the list.
func (st *runState) keep(sample []int, v, occupant int, swap bool) {
	// far leaves room to widen without overflow; an empty union stays
	// inverted, so every edge is rejected.
	const far = math.MaxInt32 - spacingReach - 1
	u := box{far, far, -far, -far}
	st.union(&u, v)
	if swap {
		st.union(&u, occupant)
	}
	const reach = spacingReach + 1
	lox, loy, hix, hiy := u.x0-reach, u.y0-reach, u.x1+reach, u.y1+reach
	if cap(st.near) < len(sample) {
		st.near = make([]int, 0, len(sample))
	}
	near := st.near[:0]
	for _, oi := range sample {
		ob := st.ebox[oi]
		if ob.x0 >= hix || ob.x1 <= lox || ob.y0 >= hiy || ob.y1 <= loy {
			continue
		}
		near = append(near, oi)
	}
	st.near = near
}

// union grows u to cover the cached boxes of v's incident edges.
func (st *runState) union(u *box, v int) {
	for _, ei := range st.g.Incident(v) {
		b := st.ebox[ei]
		u.x0, u.y0 = min(u.x0, b.x0), min(u.y0, b.y0)
		u.x1, u.y1 = max(u.x1, b.x1), max(u.y1, b.y1)
	}
}

// prepare caches each near edge's segment, midpoint and bounding box
// under the current placement. tryMove calls it once before its "before"
// scores and once after apply, so localCost(v) and localCost(occupant)
// share one build per phase. The expressions match the per-pair forms
// bit for bit, so cached reads change no cost value.
func (st *runState) prepare() {
	n := len(st.near)
	if cap(st.osegs) < n {
		c := cap(st.near)
		st.osegs = make([]layout.Segment, c)
		st.omidX = make([]float64, c)
		st.omidY = make([]float64, c)
		st.oboxes = make([]box, c)
	}
	osegs := st.osegs[:n]
	omidX, omidY := st.omidX[:n], st.omidY[:n]
	oboxes := st.oboxes[:n]
	for k, oi := range st.near {
		oe := st.g.Edges[oi]
		osegs[k] = layout.Segment{A: st.p.At(oe.U), B: st.p.At(oe.V)}
		omidX[k], omidY[k] = st.midpoint(oi)
		oboxes[k] = st.ebox[oi]
	}
}

// localCost scores vertex v's edges against the near edges the last
// prepare cached: weighted length plus crossing count minus spacing,
// mirroring the paper's cost metric locally.
//
// A comparison box spacingReach or more tiles clear of the incident
// edge's box on either axis is rejected with four integer compares. Such
// boxes are disjoint, so the segments cannot conflict, and the midpoints
// are at least spacingReach apart on that axis, so the spacing term is
// zero: the pair would add nothing. keep dropped only edges every
// incident box rejects, and kept pairs run in sample order, so every
// float sum is the one the unpruned loop over the whole sample produces.
func (st *runState) localCost(v int) float64 {
	const crossWeight = 4.0
	const spacingWeight = 0.5
	var cost float64
	near := st.near
	n := len(near)
	osegs := st.osegs[:n]
	omidX, omidY := st.omidX[:n], st.omidY[:n]
	oboxes := st.oboxes[:n]
	for _, ei := range st.g.Incident(v) {
		e := st.g.Edges[ei]
		a, b := st.p.At(e.U), st.p.At(e.V)
		cost += e.Weight * float64(layout.Manhattan(a, b))
		seg := layout.Segment{A: a, B: b}
		mx, my := st.midpoint(ei)
		eb := st.ebox[ei]
		lox, hix := eb.x0-spacingReach, eb.x1+spacingReach
		loy, hiy := eb.y0-spacingReach, eb.y1+spacingReach
		for k, ob := range oboxes {
			if ob.x0 >= hix || ob.x1 <= lox || ob.y0 >= hiy || ob.y1 <= loy {
				continue
			}
			if near[k] == ei {
				continue
			}
			if layout.SegmentsConflict(seg, osegs[k]) {
				cost += crossWeight
			}
			dx, dy := mx-omidX[k], my-omidY[k]
			// The spacing penalty only fires under distance spacingReach;
			// comparing squared distances first skips the Sqrt for the
			// typical far pair without changing any cost value.
			if d2 := dx*dx + dy*dy; d2 < spacingReach*spacingReach {
				cost += spacingWeight * (spacingReach - math.Sqrt(d2)) / spacingReach
			}
		}
	}
	return cost
}

// buildMembers indexes community membership in CSR form over reused
// storage. It is rebuilt on every use because communityAttract sorts the
// member lists in place.
func (st *runState) buildMembers(comm []int, commCount int) {
	if cap(st.memberStart) < commCount+1 {
		st.memberStart = make([]int32, commCount+1)
		st.memberCur = make([]int32, commCount)
	}
	starts := st.memberStart[:commCount+1]
	for i := range starts {
		starts[i] = 0
	}
	for _, cid := range comm {
		starts[cid+1]++
	}
	for i := 1; i <= commCount; i++ {
		starts[i] += starts[i-1]
	}
	cur := st.memberCur[:commCount]
	copy(cur, starts[:commCount])
	if cap(st.memberList) < len(comm) {
		st.memberList = make([]int, len(comm))
	}
	list := st.memberList[:len(comm)]
	for v, cid := range comm {
		list[cur[cid]] = v
		cur[cid]++
	}
	st.memberStart = starts
	st.memberList = list
}

// members returns community cid's member list (vertex-ascending until
// sorted in place by a consumer).
func (st *runState) members(cid int) []int {
	return st.memberList[st.memberStart[cid]:st.memberStart[cid+1]]
}

// communityAttract compacts every community toward a square block
// centered on its centroid: each member is assigned a target slot inside
// the block (row-major, members ordered by current position) and forced
// one step toward it, moving only onto free tiles but ignoring the local
// cost gate. These are the paper's forced community moves — they break
// the 1-D local minima (a flat line exerts no vertical force at all) and
// the following sweep re-polishes. The block shape is what "attract all
// nodes within a single community together" converges to on a grid.
func (st *runState) communityAttract(comm []int, commCount int) {
	st.buildMembers(comm, commCount)
	for cid := 0; cid < commCount; cid++ {
		vs := st.members(cid)
		if len(vs) < 3 {
			continue
		}
		cx, cy := st.p.CenterOfMass(vs)
		// Block dimensions with ~20% slack.
		side := 1
		for side*side < len(vs)*6/5 {
			side++
		}
		// Order members by current position (row-major) so targets keep
		// relative order and moves do not cross each other. The member
		// index was rebuilt fresh above, so the sort can run in place.
		ordered := vs
		sortBy(ordered, func(a, b int) bool {
			pa, pb := st.p.At(a), st.p.At(b)
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return pa.X < pb.X
		})
		x0 := int(cx) - side/2
		y0 := int(cy) - side/2
		for i, v := range ordered {
			tx := x0 + i%side
			ty := y0 + i/side
			pt := st.p.At(v)
			dx := intSign(float64(tx - pt.X))
			dy := intSign(float64(ty - pt.Y))
			if dx == 0 && dy == 0 {
				continue
			}
			st.forcedMove(v, layout.Point{X: dx, Y: dy})
		}
	}
}

// forcedMove relocates v by delta when the destination tile is free (or
// one axis of it is); it never swaps and never consults the cost gate.
func (st *runState) forcedMove(v int, delta layout.Point) bool {
	from := st.p.At(v)
	cands := [3]layout.Point{delta, {X: delta.X}, {Y: delta.Y}}
	for _, d := range cands {
		if d == (layout.Point{}) {
			continue
		}
		to := layout.Point{X: from.X + d.X, Y: from.Y + d.Y}
		if to.X < 0 || to.X >= st.p.W || to.Y < 0 || to.Y >= st.p.H {
			continue
		}
		if st.occ[to.Y*st.p.W+to.X] != 0 {
			continue
		}
		st.apply(v, to, 0, false, from)
		return true
	}
	return false
}

func sortBy(xs []int, less func(a, b int) bool) {
	// Insertion sort: community member lists are small enough and this
	// avoids importing sort with closure allocation in the hot path.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// communityKick applies the paper's two community-level escape moves: it
// pushes distinct communities' centers apart and pulls each fragmented
// community's k-means clusters toward their joint center.
func (st *runState) communityKick(comm []int, commCount int) {
	st.buildMembers(comm, commCount)
	for cid := 0; cid < commCount; cid++ {
		vs := st.members(cid)
		if len(vs) < 2 {
			continue
		}
		// Cluster the community spatially; if split, attract clusters
		// toward the community centroid.
		if cap(st.pts) < len(vs) {
			st.pts = make([]kmeans.Point, len(vs))
		}
		pts := st.pts[:len(vs)]
		for i, v := range vs {
			pt := st.p.At(v)
			pts[i] = kmeans.Point{X: float64(pt.X), Y: float64(pt.Y)}
		}
		kk := 2
		res := kmeans.KMeans(pts, kk, 25, st.rng)
		if len(res.Centroids) < 2 {
			continue
		}
		ccx, ccy := st.p.CenterOfMass(vs)
		for i, v := range vs {
			ctr := res.Centroids[res.Assign[i]]
			// Move cluster members one step from their cluster centroid
			// toward the community centroid.
			dx := intSign(ccx - ctr.X)
			dy := intSign(ccy - ctr.Y)
			if dx == 0 && dy == 0 {
				continue
			}
			st.tryMove(v, layout.Point{X: dx, Y: dy})
		}
	}
}
