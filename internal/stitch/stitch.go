// Package stitch implements the paper's hierarchical stitching procedure
// (§VII, Fig. 3, Fig. 8): each Bravyi-Haah module is embedded nearly
// optimally as a compact planar block (graph partitioning on the module's
// interaction graph), identical blocks are concatenated into a block grid
// per round, later rounds reuse measured tile regions (placement-aware
// sharing-after-measurement), output ports are reassigned per module with
// a Hungarian matching to shorten permutation wires, and the inter-round
// permutation is routed through optional Valiant-style intermediate hops
// whose locations a force-directed pass anneals.
package stitch

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"magicstate/internal/assign"
	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/partition"
	"magicstate/internal/sweep/memo"
)

// HopMode selects the inter-round permutation routing of Fig. 9d.
type HopMode int

const (
	// NoHop routes each permutation move directly.
	NoHop HopMode = iota
	// RandomHop inserts one uniformly random intermediate destination per
	// wire (Valiant routing).
	RandomHop
	// AnnealedRandomHop starts from random hops and anneals their
	// locations against the crossing/length objective.
	AnnealedRandomHop
	// AnnealedMidpointHop starts each hop at the free tile nearest the
	// wire midpoint, then anneals.
	AnnealedMidpointHop
)

// String names the mode as in Fig. 9d's legend.
func (h HopMode) String() string {
	switch h {
	case NoHop:
		return "no-hop"
	case RandomHop:
		return "random-hop"
	case AnnealedRandomHop:
		return "annealed-random-hop"
	case AnnealedMidpointHop:
		return "annealed-midpoint-hop"
	}
	return fmt.Sprintf("hopmode(%d)", int(h))
}

// Options configures the stitcher.
type Options struct {
	Seed int64
	// Reuse selects placement-aware qubit reuse for rounds past the first.
	Reuse bool
	// Hops selects the permutation routing mode. The zero value is NoHop,
	// and core.BuildStage leaves it there, so every HS point of the
	// pipeline (Table I's HS row included) routes its permutation
	// directly; only Fig. 9d's sweep and the examples pick a hop mode.
	// AnnealedMidpointHop is the best performer in Fig. 9d.
	Hops HopMode
	// DisablePortReassign skips the Hungarian port matching (ablation).
	DisablePortReassign bool
	// Barriers mirrors bravyi.Params.Barriers (default on — stitching
	// depends on the round isolation barriers expose, §V.A).
	NoBarriers bool
}

// Result is a stitched factory: the (possibly hop-rewritten) circuit with
// its metadata and the full placement.
type Result struct {
	Factory   *bravyi.Factory
	Placement *layout.Placement
	// BlockW/BlockH are the per-module block dimensions used.
	BlockW, BlockH int
	// HopWires counts wires routed through intermediate destinations.
	HopWires int
}

// blockKey identifies one module block embedding: (K, Seed) fully
// determines the single-module build, its interaction graph and the
// partition embedding, so the result can be shared process-wide.
type blockKey struct {
	K    int
	Seed int64
}

// blockVal is a memoized module block embedding: the per-register
// in-block offsets plus block dimensions. Entries are shared across
// callers and must be treated as read-only.
type blockVal struct {
	offsets []layout.Point
	bw, bh  int
}

// blockMemo caches module block embeddings. Every stitched build with
// the same (K, Seed) derives the identical embedding, and sweep grids
// (reuse scans, hop-mode comparisons) rebuild the
// same key dozens of times; the single-module generation plus
// EmbedSquare were the second-largest cost of a stitched build after
// hop annealing.
var blockMemo = memo.New(256)

// Build generates and places a hierarchically stitched factory.
func Build(p bravyi.Params, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	k := p.K
	qpm := 5*k + 13

	// 1. Embed one module's interaction graph as a compact block; every
	// module shares this layout (modules are identical in schedule).
	// offsets[reg] is the in-block tile of register index reg, where reg
	// follows the allocation order raw(3k+8), anc(k+5), out(k). The
	// embedding rng is a dedicated Seed+1 stream, so memoizing it does
	// not shift the build's own draw sequence.
	bv, err := func() (blockVal, error) {
		v, err := blockMemo.Do(blockKey{K: k, Seed: opt.Seed}, func() (any, error) {
			single, err := bravyi.Build(bravyi.Params{K: k, Levels: 1})
			if err != nil {
				return nil, err
			}
			moduleGraph := graph.FromCircuit(single.Circuit)
			blockP := partition.EmbedSquare(moduleGraph, rand.New(rand.NewSource(opt.Seed+1)))
			blockP.Normalize()
			offsets := make([]layout.Point, qpm)
			copy(offsets, blockP.Pos)
			return blockVal{offsets: offsets, bw: blockP.W, bh: blockP.H}, nil
		})
		if err != nil {
			return blockVal{}, err
		}
		return v.(blockVal), nil
	}()
	if err != nil {
		return nil, err
	}
	offsets, bw, bh := bv.offsets, bv.bw, bv.bh

	// 2. Block grid arrangement. Round 1 blocks fill a near-square grid;
	// later rounds either reuse round-1 regions (Reuse) or append blocks
	// below a one-block gutter.
	n1 := p.ModulesInRound(1)
	bcols := 1
	for bcols*bcols < n1 {
		bcols++
	}
	blockOrigin := func(block int) layout.Point {
		return layout.Point{X: (block % bcols) * bw, Y: (block / bcols) * bh}
	}

	// Closed-form tiles for round-1 qubit ids (allocated module-major,
	// register-minor by Build): tileOf[id] for ids below n1*qpm; later
	// ids have no closed-form tile.
	tileOf := make([]layout.Point, n1*qpm)
	for im := 0; im < n1; im++ {
		org := blockOrigin(im)
		for reg := 0; reg < qpm; reg++ {
			tileOf[im*qpm+reg] = layout.Point{X: org.X + offsets[reg].X, Y: org.Y + offsets[reg].Y}
		}
	}

	// 3. Generate the factory. With reuse, the assigner hands each later
	// module a spatially contiguous run of freed tiles (§VII.B.1's module
	// arrangement over reusable regions).
	params := p
	params.Barriers = !opt.NoBarriers
	params.Reuse = opt.Reuse
	if opt.Reuse {
		params.Assigner = reuseAssigner(tileOf, bw, bh, bcols)
	}
	f, err := bravyi.Build(params)
	if err != nil {
		return nil, err
	}

	// 4. Placement: round-1 ids by closed form; later fresh ids by
	// appended blocks; reused ids keep their tiles.
	pl := layout.NewPlacement(f.Circuit.NumQubits, 1, 1)
	maxX, maxY := 0, 0
	place := func(id circuit.Qubit, pt layout.Point) {
		pl.Set(int(id), pt)
		if pt.X > maxX {
			maxX = pt.X
		}
		if pt.Y > maxY {
			maxY = pt.Y
		}
	}
	for id, pt := range tileOf {
		place(circuit.Qubit(id), pt)
	}
	// Gutter row of empty tiles between round-1 grid and appended blocks.
	nextBlock := ((n1 + bcols - 1) / bcols) * bcols // start of next full block row
	extraBlockYOffset := bh                         // one empty block row as permutation gutter
	for _, r := range f.Rounds[1:] {
		for _, mi := range r.Modules {
			m := f.Modules[mi]
			regs := make([]circuit.Qubit, 0, qpm)
			regs = append(regs, m.Raw...)
			regs = append(regs, m.Anc...)
			regs = append(regs, m.Out...)
			fresh := make([]circuit.Qubit, 0, qpm)
			for _, q := range regs {
				if pl.At(int(q)) == layout.Unplaced {
					fresh = append(fresh, q)
				}
			}
			if len(fresh) == 0 {
				continue
			}
			org := blockOrigin(nextBlock)
			org.Y += extraBlockYOffset
			nextBlock++
			for i, q := range fresh {
				// Fresh registers adopt the block layout in register
				// order; when partially reused this still packs them.
				reg := i
				if len(fresh) == qpm {
					reg = regIndex(&m, q)
				}
				place(q, layout.Point{X: org.X + offsets[reg].X, Y: org.Y + offsets[reg].Y})
			}
		}
	}
	pl.W, pl.H = maxX+1, maxY+1
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("stitch: %w", err)
	}

	// 5. Port reassignment (§VII.B.2): within each previous-round module,
	// match output ports to consuming modules minimizing total Manhattan
	// wire length.
	if !opt.DisablePortReassign {
		if err := reassignAllPorts(f, pl); err != nil {
			return nil, err
		}
	}

	// 6. Intermediate hop routing (§VII.B.3).
	res := &Result{Factory: f, Placement: pl, BlockW: bw, BlockH: bh}
	if opt.Hops != NoHop && len(f.Wires) > 0 {
		hopCount, err := applyHopRouting(f, pl, opt, rng)
		if err != nil {
			return nil, err
		}
		res.HopWires = hopCount
	}
	return res, nil
}

// reuseAssigner hands each later module the freed ids that come first
// in block-major, then row-major tile order, so each module gets the
// next compact freed region (Build removes granted ids from the pool).
// Qubit ids keep their tiles across reuse chains, so ids first
// allocated in round 1 always have a known tile, tileOf[id]. Ids first
// allocated fresh in rounds >= 2 (possible at three or more levels) get
// their tiles only after generation; they rank after every known id, in
// id order, so modules prefer compact known regions.
//
// Every id has a unique rank, computed once per build, so keeping the
// need lowest ranks by bounded insertion returns exactly the head of the
// pool sorted by rank, without copying and sorting the whole pool for
// every register.
func reuseAssigner(tileOf []layout.Point, bw, bh, bcols int) bravyi.ReuseAssigner {
	w, h := 1, 1
	for _, pt := range tileOf {
		w, h = max(w, pt.X+1), max(h, pt.Y+1)
	}
	rank := make([]int, len(tileOf))
	unknown := 0 // past every known rank: an unknown id q ranks unknown+q
	for id, pt := range tileOf {
		rank[id] = (((pt.Y/bh)*bcols+pt.X/bw)*h+pt.Y)*w + pt.X
		unknown = max(unknown, rank[id]+1)
	}
	var ranks []int
	return func(_, _, need int, pool []circuit.Qubit) []circuit.Qubit {
		ids := make([]circuit.Qubit, 0, min(need, len(pool)))
		ranks = ranks[:0]
		for _, q := range pool {
			r := unknown + int(q)
			if int(q) < len(rank) {
				r = rank[q]
			}
			if len(ids) == cap(ids) && (len(ids) == 0 || r >= ranks[len(ranks)-1]) {
				continue
			}
			i, _ := slices.BinarySearch(ranks, r)
			if len(ids) < cap(ids) {
				ids, ranks = append(ids, 0), append(ranks, 0)
			}
			copy(ids[i+1:], ids[i:])
			copy(ranks[i+1:], ranks[i:])
			ids[i], ranks[i] = q, r
		}
		return ids
	}
}

// regIndex returns the register index (raw, anc, out order) of q in m.
func regIndex(m *bravyi.Module, q circuit.Qubit) int {
	for i, r := range m.Raw {
		if r == q {
			return i
		}
	}
	for i, a := range m.Anc {
		if a == q {
			return len(m.Raw) + i
		}
	}
	for i, o := range m.Out {
		if o == q {
			return len(m.Raw) + len(m.Anc) + i
		}
	}
	return 0
}

// reassignAllPorts runs the Hungarian matching for every module that
// feeds a later round. Modules are matched independently (each matching
// reads only placement tiles and rewrites only its own module's wires),
// so processing them in ascending module order — rather than the map
// order an earlier version used — changes nothing but determinism of
// the work schedule. The cost matrix is carved once and refilled per
// module.
func reassignAllPorts(f *bravyi.Factory, pl *layout.Placement) error {
	k := f.Params.K
	// Group wires by source module.
	perModule := make([][]bravyi.Wire, len(f.Modules))
	for _, w := range f.Wires {
		perModule[w.FromModule] = append(perModule[w.FromModule], w)
	}
	cost := make([][]float64, k)
	backing := make([]float64, k*k)
	for pi := range cost {
		cost[pi] = backing[pi*k : (pi+1)*k : (pi+1)*k]
	}
	perm := make([]int, k)
	for pm, wires := range perModule {
		if len(wires) == 0 {
			continue // final-round module: feeds nothing
		}
		if len(wires) != k {
			// A module's k ports feed exactly k wires by construction;
			// anything else indicates corrupted wiring.
			return fmt.Errorf("stitch: module %d has %d wires, want %d", pm, len(wires), k)
		}
		sort.Slice(wires, func(i, j int) bool { return wires[i].FromPort < wires[j].FromPort })
		outs := f.Modules[pm].Out
		for pi := range cost {
			src := pl.At(int(outs[pi]))
			for wi, w := range wires {
				dst := pl.At(int(f.Modules[w.ToModule].Raw[w.ToSlot]))
				cost[pi][wi] = float64(layout.Manhattan(src, dst))
			}
		}
		match, _, err := assign.Hungarian(cost)
		if err != nil {
			return err
		}
		// match[pi] = wi means port pi serves wire wi; wires[wi] currently
		// uses port wires[wi].FromPort == wi (sorted), so the permutation
		// sending old port wi to new port pi is the inverse of match.
		for pi, wi := range match {
			perm[wi] = pi
		}
		if err := f.ReassignPorts(pm, perm); err != nil {
			return err
		}
	}
	return nil
}
