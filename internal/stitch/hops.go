package stitch

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/layout"
)

// hopScratch owns every buffer the hop router needs: dense per-qubit
// bookkeeping, the dead-tile grid behind pickNearest, the compacted
// free-list behind pickRandom, and the annealer's segment table, bucket
// grid and scoring arenas. Routers are pooled so repeated stitch builds
// reuse the high-water-mark allocations of earlier ones.
type hopScratch struct {
	liveAfter []bool
	used      []bool
	pool      []circuit.Qubit
	// free/freePos form a compacted free-list over the dead pool:
	// free[:nFree] lists the unused qubits in O(1)-removable order, and
	// freePos[q] is q's index in it (-1 once used).
	free    []circuit.Qubit
	freePos []int32
	// tileQ[y*W+x] holds q+1 when unused dead qubit q sits on the tile,
	// the spatial index behind pickNearest.
	tileQ []int32
	hopOf []circuit.Qubit

	// Annealer state.
	hopIdxs    []int
	srcT, dstT []layout.Point
	// segs holds two fixed slots per wire: hopped wires occupy both,
	// direct wires only the first; unused slots carry an off-canvas
	// sentinel whose bounding box can never overlap a real leg. segBox
	// caches each slot's bounding box for the scan's inline reject.
	segs   []layout.Segment
	segBox []box
	candQ  []circuit.Qubit
	// cnt holds the per-wire conflict counts of one speculative pass:
	// 7 scored options (current hop + 6 candidates) x 2 legs per wire,
	// -1 in a first-leg slot marking a candidate the speculation skipped.
	cnt []int32
	// curCnt[si] is slot si's live conflict count, maintained
	// incrementally across passes so current-hop scores never rescan.
	curCnt  []int32
	changes []segChange
}

// segChange records one accepted move's effect on a segment slot, the
// delta later wires repair their speculative counts with.
type segChange struct {
	old, new       layout.Segment
	oldBox, newBox box
}

var hopPool = sync.Pool{New: func() any { return &hopScratch{} }}

// box is an inclusive tile-space bounding rectangle.
type box struct{ minX, minY, maxX, maxY int }

func boxOf(s layout.Segment) box {
	b := box{minX: s.A.X, minY: s.A.Y, maxX: s.A.X, maxY: s.A.Y}
	return b.add(s.B)
}

func (b box) add(p layout.Point) box {
	if p.X < b.minX {
		b.minX = p.X
	}
	if p.X > b.maxX {
		b.maxX = p.X
	}
	if p.Y < b.minY {
		b.minY = p.Y
	}
	if p.Y > b.maxY {
		b.maxY = p.Y
	}
	return b
}

func (b box) overlaps(o box) bool {
	return b.minX <= o.maxX && o.minX <= b.maxX && b.minY <= o.maxY && o.minY <= b.maxY
}

// pickRandomTries bounds the historical rejection-sampling loop before
// pickRandom falls back to the compacted free-list. While fewer than
// roughly half the dead qubits are taken — the common regime — sixteen
// tries fail with probability under 2^-16, so the historical rng stream
// (and therefore every existing artifact) is preserved; once the pool
// gets crowded the old loop degraded toward its 4*len(pool) bound while
// the fallback stays O(1) and never fails while a free qubit exists.
const pickRandomTries = 16

// applyHopRouting selects an intermediate destination for every
// inter-round wire, anneals hop locations when the mode asks for it, and
// rewrites the circuit. Hop qubits are dead qubits (consumed raw states
// or measured ancillas not reused by later rounds), so hops never add
// tiles. Returns the number of hopped wires.
func applyHopRouting(f *bravyi.Factory, pl *layout.Placement, opt Options, rng *rand.Rand) (int, error) {
	nq := f.Circuit.NumQubits
	hs := hopPool.Get().(*hopScratch)
	defer hopPool.Put(hs)

	// Collect hop candidates per consuming round: ids dead by that
	// round's permutation time and not used as registers afterwards.
	liveAfter := resizeBools(&hs.liveAfter, nq)
	for _, m := range f.Modules {
		if m.Round >= 2 {
			for _, qs := range [3][]circuit.Qubit{m.Raw, m.Anc, m.Out} {
				for _, q := range qs {
					liveAfter[q] = true
				}
			}
		}
	}
	// Dead pool: round-1 raw states (consumed by injection) and round-1
	// ancillas (measured), minus anything reused later.
	pool := hs.pool[:0]
	for _, mi := range f.Rounds[0].Modules {
		m := f.Modules[mi]
		for _, qs := range [2][]circuit.Qubit{m.Raw, m.Anc} {
			for _, q := range qs {
				if !liveAfter[q] {
					pool = append(pool, q)
				}
			}
		}
	}
	hs.pool = pool
	if len(pool) == 0 {
		return 0, nil
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })

	wires := f.Wires
	used := resizeBools(&hs.used, nq)
	hopOf := hs.hopOf[:0]
	for range wires {
		hopOf = append(hopOf, circuit.NoQubit)
	}
	hs.hopOf = hopOf

	// Free-list and dead-tile grid over the pool.
	if cap(hs.free) < len(pool) {
		hs.free = make([]circuit.Qubit, len(pool))
	}
	free := hs.free[:len(pool)]
	copy(free, pool)
	nFree := len(free)
	freePos := resizeInt32s(&hs.freePos, nq, -1)
	for i, q := range free {
		freePos[q] = int32(i)
	}
	tileQ := resizeInt32s(&hs.tileQ, pl.W*pl.H, 0)
	for _, q := range pool {
		pt := pl.At(int(q))
		tileQ[pt.Y*pl.W+pt.X] = int32(q) + 1
	}

	take := func(q circuit.Qubit) {
		used[q] = true
		pt := pl.At(int(q))
		tileQ[pt.Y*pl.W+pt.X] = 0
		i := freePos[q]
		last := free[nFree-1]
		free[i] = last
		freePos[last] = i
		freePos[q] = -1
		nFree--
	}

	srcTile := func(w bravyi.Wire) layout.Point {
		return pl.At(int(f.Modules[w.FromModule].Out[w.FromPort]))
	}
	dstTile := func(w bravyi.Wire) layout.Point {
		return pl.At(int(f.Modules[w.ToModule].Raw[w.ToSlot]))
	}

	pickRandom := func() circuit.Qubit {
		// Historical rejection sampling first (stream compatibility),
		// bounded; then one uniform O(1) draw from the free-list.
		tries := pickRandomTries
		if tries > 4*len(pool) {
			tries = 4 * len(pool)
		}
		for t := 0; t < tries; t++ {
			q := pool[rng.Intn(len(pool))]
			if !used[q] {
				take(q)
				return q
			}
		}
		if nFree == 0 {
			return circuit.NoQubit
		}
		q := free[rng.Intn(nFree)]
		take(q)
		return q
	}
	pickNearest := func(target layout.Point) circuit.Qubit {
		best, bestD := circuit.NoQubit, 1<<30
		// Expanding Chebyshev rings: a ring-c tile is at Manhattan
		// distance >= c, so once c exceeds the best distance no closer
		// (or equal-distance, lower-id) qubit can appear. Ties prefer the
		// lowest qubit id, matching the historical ascending-pool scan.
		maxC := pl.W + pl.H
		for c := 0; c <= maxC && c <= bestD; c++ {
			x0, x1 := target.X-c, target.X+c
			y0, y1 := target.Y-c, target.Y+c
			visit := func(x, y int) {
				if x < 0 || x >= pl.W || y < 0 || y >= pl.H {
					return
				}
				v := tileQ[y*pl.W+x]
				if v == 0 {
					return
				}
				q := circuit.Qubit(v - 1)
				d := layout.Manhattan(layout.Point{X: x, Y: y}, target)
				if d < bestD || (d == bestD && q < best) {
					best, bestD = q, d
				}
			}
			if c == 0 {
				visit(target.X, target.Y)
				continue
			}
			for x := x0; x <= x1; x++ {
				visit(x, y0)
				visit(x, y1)
			}
			for y := y0 + 1; y < y1; y++ {
				visit(x0, y)
				visit(x1, y)
			}
		}
		if best != circuit.NoQubit {
			take(best)
		}
		return best
	}

	count := 0
	for wi, w := range wires {
		var hq circuit.Qubit = circuit.NoQubit
		switch opt.Hops {
		case RandomHop, AnnealedRandomHop:
			hq = pickRandom()
		case AnnealedMidpointHop:
			s, d := srcTile(w), dstTile(w)
			hq = pickNearest(layout.Point{X: (s.X + d.X) / 2, Y: (s.Y + d.Y) / 2})
		}
		if hq == circuit.NoQubit {
			continue // pool exhausted: route this wire directly
		}
		hopOf[wi] = hq
		count++
	}

	if opt.Hops == AnnealedRandomHop || opt.Hops == AnnealedMidpointHop {
		hs.anneal(f, pl, wires, pool, used, rng)
	}
	hops := make(map[int]circuit.Qubit, count)
	for wi, q := range hopOf {
		if q != circuit.NoQubit {
			hops[wi] = q
		}
	}
	if err := bravyi.ApplyHops(f, hops); err != nil {
		return 0, err
	}
	return len(hops), nil
}

// hopIters caps hop annealing passes.
const hopIters = 25

// anneal locally improves hop assignments: each pass tries to move every
// hop to a nearby unused dead qubit and keeps the move when the
// force-directed objective — segment conflicts between permutation legs
// (the crossing heuristic) plus a length term — decreases.
//
// The historical scoring accumulated a fixed +4 per conflicting segment
// onto a per-leg length term, so a leg's score is fully determined by
// (its Manhattan length, its conflict count): the float fold can be
// replayed bit-exactly from the count alone, and counts are free to be
// gathered in any order and repaired incrementally. Each pass therefore
// draws every wire's candidate qubits upfront (the exact historical rng
// sequence), counts all wires' conflicts concurrently against the
// pass-start segment snapshot, then resolves acceptances serially in
// ascending wire order, repairing each wire's counts by the segments
// earlier acceptances actually moved. The accept sequence — and so the
// final hop assignment — is byte-identical to the serial annealer no
// matter how many workers counted.
func (hs *hopScratch) anneal(f *bravyi.Factory, pl *layout.Placement, wires []bravyi.Wire,
	pool []circuit.Qubit, used []bool, rng *rand.Rand) {

	hopOf := hs.hopOf
	hopIdxs := hs.hopIdxs[:0]
	for wi, q := range hopOf {
		if q != circuit.NoQubit {
			hopIdxs = append(hopIdxs, wi)
		}
	}
	hs.hopIdxs = hopIdxs
	if len(hopIdxs) == 0 {
		return
	}

	// Wire endpoint tiles and the fixed-slot segment table: two slots
	// per wire, the second a never-matching sentinel for direct wires.
	nw := len(wires)
	if cap(hs.srcT) < nw {
		hs.srcT = make([]layout.Point, nw)
		hs.dstT = make([]layout.Point, nw)
	}
	srcT, dstT := hs.srcT[:nw], hs.dstT[:nw]
	for wi, w := range wires {
		srcT[wi] = pl.At(int(f.Modules[w.FromModule].Out[w.FromPort]))
		dstT[wi] = pl.At(int(f.Modules[w.ToModule].Raw[w.ToSlot]))
	}
	nSegs := 2 * nw
	if cap(hs.segs) < nSegs {
		hs.segs = make([]layout.Segment, nSegs)
		hs.segBox = make([]box, nSegs)
	}
	segs, segBox := hs.segs[:nSegs], hs.segBox[:nSegs]
	// deadSeg sits off-canvas: its box rejects against every real leg
	// and its value equals no real segment, so dead slots need no
	// liveness check in the scan.
	deadSeg := layout.Segment{A: layout.Point{X: -9, Y: -9}, B: layout.Point{X: -9, Y: -9}}
	deadBox := boxOf(deadSeg)
	setSeg := func(si int, s layout.Segment) {
		segs[si] = s
		segBox[si] = boxOf(s)
	}
	for wi := range wires {
		if q := hopOf[wi]; q != circuit.NoQubit {
			hop := pl.At(int(q))
			setSeg(2*wi, layout.Segment{A: srcT[wi], B: hop})
			setSeg(2*wi+1, layout.Segment{A: hop, B: dstT[wi]})
		} else {
			setSeg(2*wi, layout.Segment{A: srcT[wi], B: dstT[wi]})
			segs[2*wi+1], segBox[2*wi+1] = deadSeg, deadBox
		}
	}

	// conflicts counts the segments crossing leg l: a linear scan over
	// the slot table with an inline bounding-box reject (a conflict
	// implies overlapping boxes, so the reject drops only never-counted
	// pairs) and the historical skip of value-identical segments.
	conflicts := func(l layout.Segment, lb box) int32 {
		var c int32
		for si := 0; si < nSegs; si++ {
			b := segBox[si]
			if b.minX > lb.maxX || b.maxX < lb.minX || b.minY > lb.maxY || b.maxY < lb.minY {
				continue
			}
			o := segs[si]
			if o == l {
				continue
			}
			if layout.SegmentsConflictTight(l, o) {
				c++
			}
		}
		return c
	}
	// A leg's two ends are distinct qubits (a module output, a later
	// raw slot, a dead round-1 qubit) on distinct tiles, so no leg is a
	// point segment (TestHopLegsAreNeverPoints).
	legsOf := func(wi int, hop layout.Point) (l0, l1 layout.Segment, b0, b1 box) {
		l0 = layout.Segment{A: srcT[wi], B: hop}
		l1 = layout.Segment{A: hop, B: dstT[wi]}
		return l0, l1, boxOf(l0), boxOf(l1)
	}
	// replay folds a wire's score exactly as the serial annealer did:
	// leg length, then one +4 per conflict, per leg in order. Repeated
	// identical additions depend only on their count, so counts gathered
	// out of order (or repaired) reproduce the historical bits.
	replay := func(wi int, hop layout.Point, c0, c1 int32) float64 {
		var s float64
		s += 0.2 * float64(layout.Manhattan(srcT[wi], hop))
		for ; c0 > 0; c0-- {
			s += 4
		}
		s += 0.2 * float64(layout.Manhattan(hop, dstT[wi]))
		for ; c1 > 0; c1-- {
			s += 4
		}
		return s
	}

	const nCand = 6
	const nOpt = nCand + 1 // option 0 is the current hop
	nh := len(hopIdxs)
	if cap(hs.candQ) < nh*nCand {
		hs.candQ = make([]circuit.Qubit, nh*nCand)
		hs.cnt = make([]int32, nh*nOpt*2)
	}
	candQ, cnt := hs.candQ[:nh*nCand], hs.cnt[:nh*nOpt*2]
	changes := hs.changes[:0]

	// Live per-slot conflict counts, seeded with one quadratic pass and
	// repaired on every accepted move: a wire's current score replays
	// from them for free, so passes only ever scan candidate legs.
	curCnt := resizeInt32s(&hs.curCnt, nSegs, 0)
	for si := 0; si < nSegs; si++ {
		curCnt[si] = conflicts(segs[si], segBox[si])
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > nh {
		workers = nh
	}
	if workers < 1 {
		workers = 1
	}

	// lowerBound is the score a hop tile cannot beat: conflicts only add
	// a nonnegative +4 each and rounded float addition is monotone, so a
	// wire's score through hop is always >= its pure length fold. A
	// candidate whose bound already meets the strict < acceptance test
	// can be discarded without ever counting its conflicts — in midpoint
	// mode most random candidates lose on length alone.
	lowerBound := func(wi int, hop layout.Point) float64 {
		return 0.2*float64(layout.Manhattan(srcT[wi], hop)) +
			0.2*float64(layout.Manhattan(hop, dstT[wi]))
	}
	// candScore counts both legs in one walk over the slot table and
	// abandons the candidate as soon as the partial fold already meets
	// best: counts only grow as the walk proceeds and the fold is
	// monotone in both counts, so a crossed threshold is final. A
	// survivor's returned score is the full walk's exact fold.
	candScore := func(wi int, hop layout.Point, best float64) (c0, c1 int32, ok bool) {
		l0, l1, b0, b1 := legsOf(wi, hop)
		ub := b0.add(l1.B)
		for si := 0; si < nSegs; si++ {
			bt := segBox[si]
			if bt.minX > ub.maxX || bt.maxX < ub.minX || bt.minY > ub.maxY || bt.maxY < ub.minY {
				continue
			}
			o := segs[si]
			hit := false
			if !(bt.minX > b0.maxX || bt.maxX < b0.minX || bt.minY > b0.maxY || bt.maxY < b0.minY) &&
				o != l0 && layout.SegmentsConflictTight(l0, o) {
				c0++
				hit = true
			}
			if !(bt.minX > b1.maxX || bt.maxX < b1.minX || bt.minY > b1.maxY || bt.maxY < b1.minY) &&
				o != l1 && layout.SegmentsConflictTight(l1, o) {
				c1++
				hit = true
			}
			if hit && replay(wi, hop, c0, c1) >= best {
				return 0, 0, false
			}
		}
		return c0, c1, replay(wi, hop, c0, c1) < best
	}

	for pass := 0; pass < hopIters; pass++ {
		improved := false
		// Draw every candidate upfront: the rng sequence is exactly the
		// historical per-wire draw order, independent of scoring.
		for i := range hopIdxs {
			for c := 0; c < nCand; c++ {
				candQ[i*nCand+c] = pool[rng.Intn(len(pool))]
			}
		}
		// Speculative parallel counting against the pass-start snapshot:
		// every wire's current-hop counts, plus candidate counts for the
		// candidates that stand a chance against the wire's snapshot
		// score (-1 marks the rest; resolve counts them live in the rare
		// case an earlier acceptance makes them viable). A single-worker
		// "pool" gains nothing over counting at resolve time, so the
		// phase only runs when real parallelism is available.
		if workers > 1 {
			var nextIdx atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(nextIdx.Add(1)) - 1
						if i >= nh {
							return
						}
						wi := hopIdxs[i]
						hop := pl.At(int(hopOf[wi]))
						snapCur := replay(wi, hop, curCnt[2*wi], curCnt[2*wi+1])
						for c := 0; c < nCand; c++ {
							q := candQ[i*nCand+c]
							cp := pl.At(int(q))
							if used[q] || lowerBound(wi, cp) >= snapCur {
								cnt[(i*nOpt+c+1)*2] = -1
								continue
							}
							if c0, c1, ok := candScore(wi, cp, snapCur); ok {
								cnt[(i*nOpt+c+1)*2] = c0
								cnt[(i*nOpt+c+1)*2+1] = c1
							} else {
								cnt[(i*nOpt+c+1)*2] = -1
							}
						}
					}
				}()
			}
			wg.Wait()
		}
		// Serial deterministic resolve in ascending wire order. Snapshot
		// counts are repaired by the slots earlier acceptances changed
		// (or dropped outright once the change list outgrows the slot
		// table); counts the speculation skipped are taken live against
		// the already-updated table. Either way the counts are exact and
		// the scores replay the serial annealer's bits.
		changes = changes[:0]
		for i, wi := range hopIdxs {
			useSnap := workers > 1 && 2*len(changes) <= nSegs
			adjust := func(l layout.Segment, lb box, c int32) int32 {
				for k := range changes {
					ch := &changes[k]
					if ch.old != l && ch.oldBox.overlaps(lb) && layout.SegmentsConflictTight(l, ch.old) {
						c--
					}
					if ch.new != l && ch.newBox.overlaps(lb) && layout.SegmentsConflictTight(l, ch.new) {
						c++
					}
				}
				return c
			}
			cur := hopOf[wi]
			bestScore := replay(wi, pl.At(int(cur)), curCnt[2*wi], curCnt[2*wi+1])
			var best circuit.Qubit = circuit.NoQubit
			for c := 0; c < nCand; c++ {
				q := candQ[i*nCand+c]
				if used[q] {
					continue
				}
				cp := pl.At(int(q))
				if lowerBound(wi, cp) >= bestScore {
					continue
				}
				if pc := cnt[(i*nOpt+c+1)*2]; useSnap && pc >= 0 {
					l0, l1, b0, b1 := legsOf(wi, cp)
					s := replay(wi, cp, adjust(l0, b0, pc), adjust(l1, b1, cnt[(i*nOpt+c+1)*2+1]))
					if s < bestScore {
						best, bestScore = q, s
					}
				} else if c0, c1, ok := candScore(wi, cp, bestScore); ok {
					best, bestScore = q, replay(wi, cp, c0, c1)
				}
			}
			if best != circuit.NoQubit {
				used[cur] = false
				used[best] = true
				hopOf[wi] = best
				hop := pl.At(int(best))
				l0, l1, b0, b1 := legsOf(wi, hop)
				o0, o1 := segs[2*wi], segs[2*wi+1]
				ob0, ob1 := segBox[2*wi], segBox[2*wi+1]
				if workers > 1 {
					changes = append(changes,
						segChange{old: o0, new: l0, oldBox: ob0, newBox: b0},
						segChange{old: o1, new: l1, oldBox: ob1, newBox: b1})
				}
				// Repair every other slot's live count for the two
				// outgoing and two incoming legs in a single walk, then
				// rescan the moved slots against the updated table.
				for t := 0; t < nSegs; t++ {
					if t == 2*wi || t == 2*wi+1 {
						continue
					}
					lt, bt := segs[t], segBox[t]
					d := curCnt[t]
					if o0 != lt && ob0.overlaps(bt) && layout.SegmentsConflictTight(lt, o0) {
						d--
					}
					if o1 != lt && ob1.overlaps(bt) && layout.SegmentsConflictTight(lt, o1) {
						d--
					}
					if l0 != lt && b0.overlaps(bt) && layout.SegmentsConflictTight(lt, l0) {
						d++
					}
					if l1 != lt && b1.overlaps(bt) && layout.SegmentsConflictTight(lt, l1) {
						d++
					}
					curCnt[t] = d
				}
				segs[2*wi], segBox[2*wi] = l0, b0
				segs[2*wi+1], segBox[2*wi+1] = l1, b1
				curCnt[2*wi] = conflicts(l0, b0)
				curCnt[2*wi+1] = conflicts(l1, b1)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	hs.changes = changes[:0]
}

// resizeBools resets *s to n false entries, reusing capacity.
func resizeBools(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
	} else {
		*s = (*s)[:n]
		for i := range *s {
			(*s)[i] = false
		}
	}
	return *s
}

// resizeInt32s resets *s to n copies of fill, reusing capacity.
func resizeInt32s(s *[]int32, n int, fill int32) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	} else {
		*s = (*s)[:n]
	}
	for i := range *s {
		(*s)[i] = fill
	}
	return *s
}

// PermutationLatency extracts the permutation-phase window of round r
// from per-gate timings (Fig. 9d's metric): the cycles between the first
// and last permutation move of that round.
func PermutationLatency(f *bravyi.Factory, start, end []int, round int) (int, error) {
	if round < 2 || round > len(f.Rounds) {
		return 0, fmt.Errorf("stitch: round %d has no permutation phase", round)
	}
	r := f.Rounds[round-1]
	lo, hi := -1, 0
	for gi := r.PermStart; gi < r.PermEnd; gi++ {
		if start[gi] < 0 {
			continue
		}
		if lo == -1 || start[gi] < lo {
			lo = start[gi]
		}
		if end[gi] > hi {
			hi = end[gi]
		}
	}
	if lo == -1 {
		return 0, nil
	}
	return hi - lo, nil
}
