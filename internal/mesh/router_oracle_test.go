package mesh

import (
	"math/rand"
	"reflect"
	"testing"

	"magicstate/internal/layout"
)

// This file keeps the cell-at-a-time router as a test-side reference:
// routeNaive, routeFromSetNaive, checkXYNaive and checkYXNaive are the
// router's queries as they were before the busy bitmaps, walkXY and
// walkYX the closure-based candidate walkers, and the *Naive
// compositions below rebuild routeXY, routeXYTree and routeTree on top
// of them. They read only busyUntil, never the bitmaps, so the
// bitmap router can be checked against them query by query.

// walkXY visits the horizontal-first path between tiles src and dst
// cell by cell: the exit cell below or above src, the highway row to
// the column beside dst, then that column to dst's port. visit
// returning false aborts the walk; walkXY then returns false.
func (l *Lattice) walkXY(src, dst layout.Point, visit func(ci int) bool) bool {
	sx, sy := 2*src.X+1, 2*src.Y+1
	dx, dy := 2*dst.X+1, 2*dst.Y+1
	ry := sy + 1
	if dy < sy {
		ry = sy - 1
	}
	cx := dx + 1
	if sx < dx {
		cx = dx - 1
	}
	if !visit(l.CellIndex(sx, ry)) {
		return false
	}
	for x := sx; x != cx; x += sign(cx - sx) {
		if !visit(l.CellIndex(x+sign(cx-sx), ry)) {
			return false
		}
	}
	for y := ry; y != dy; y += sign(dy - ry) {
		if !visit(l.CellIndex(cx, y+sign(dy-ry))) {
			return false
		}
	}
	return true
}

// walkYX visits the vertical-first path between tiles src and dst.
func (l *Lattice) walkYX(src, dst layout.Point, visit func(ci int) bool) bool {
	sx, sy := 2*src.X+1, 2*src.Y+1
	dx, dy := 2*dst.X+1, 2*dst.Y+1
	cx := sx + 1
	if dx < sx {
		cx = sx - 1
	}
	ry := dy + 1
	if sy < dy {
		ry = dy - 1
	}
	if !visit(l.CellIndex(cx, sy)) {
		return false
	}
	for y := sy; y != ry; y += sign(ry - sy) {
		if !visit(l.CellIndex(cx, y+sign(ry-sy))) {
			return false
		}
	}
	for x := cx; x != dx; x += sign(dx - cx) {
		if !visit(l.CellIndex(x+sign(dx-cx), ry)) {
			return false
		}
	}
	return true
}

// walkPath materializes a walk's cells.
func walkPath(walk func(layout.Point, layout.Point, func(int) bool) bool, src, dst layout.Point) []int {
	var path []int
	walk(src, dst, func(ci int) bool {
		path = append(path, ci)
		return true
	})
	return path
}

// routeNaive is the plain BFS form of route: notes the busyUntil of
// every busy in-box non-tile cell it touches (busy ports, busy
// neighbours of visited cells) and returns the minimum on failure.
func (r *router) routeNaive(srcPorts, dstPorts []int, t int) ([]int, int) {
	r.stamp++
	r.queue = r.queue[:0]
	minExp := 0
	note := func(bu int) {
		if minExp == 0 || bu < minExp {
			minExp = bu
		}
	}
	goals := 0
	for _, c := range dstPorts {
		if r.lat.isTile[c] || !r.box.contains(c%r.lat.CW, c/r.lat.CW) {
			continue
		}
		if bu := r.busyUntil[c]; bu > t {
			note(bu)
			continue
		}
		r.goalStamp[c] = r.stamp
		goals++
	}
	if goals == 0 {
		return nil, minExp
	}
	for _, c := range srcPorts {
		if r.lat.isTile[c] || !r.box.contains(c%r.lat.CW, c/r.lat.CW) {
			continue
		}
		if bu := r.busyUntil[c]; bu > t {
			note(bu)
			continue
		}
		if r.visited[c] == r.stamp {
			continue
		}
		r.visited[c] = r.stamp
		r.parent[c] = -1
		if r.goalStamp[c] == r.stamp {
			r.pathBuf = append(r.pathBuf[:0], c)
			return r.pathBuf, 0
		}
		r.queue = append(r.queue, c)
	}
	for head := 0; head < len(r.queue); head++ {
		cur := r.queue[head]
		r.nbuf = r.lat.NeighborCells(cur, r.nbuf[:0])
		for _, nb := range r.nbuf {
			if r.visited[nb] == r.stamp {
				continue
			}
			if r.lat.isTile[nb] || !r.box.contains(nb%r.lat.CW, nb/r.lat.CW) {
				continue
			}
			if bu := r.busyUntil[nb]; bu > t {
				note(bu)
				continue
			}
			r.visited[nb] = r.stamp
			r.parent[nb] = cur
			if r.goalStamp[nb] == r.stamp {
				return r.walkBack(nb), 0
			}
			r.queue = append(r.queue, nb)
		}
	}
	return nil, minExp
}

func (r *router) freeNaive(ci, t int) bool {
	if r.lat.isTile[ci] || r.busyUntil[ci] > t {
		return false
	}
	return r.box.contains(ci%r.lat.CW, ci/r.lat.CW)
}

// routeFromSetNaive is the plain BFS form of routeFromSet.
func (r *router) routeFromSetNaive(tree []int, groups [][]int, connected []bool, t int) ([]int, int) {
	r.stamp++
	r.queue = r.queue[:0]
	goals := 0
	for gi, done := range connected {
		if done {
			continue
		}
		for _, c := range groups[gi] {
			if r.freeNaive(c, t) {
				r.goalStamp[c] = r.stamp
				r.goalGroup[c] = gi
				goals++
			}
		}
	}
	if goals == 0 {
		return nil, -1
	}
	for _, c := range tree {
		if r.visited[c] == r.stamp {
			continue
		}
		r.visited[c] = r.stamp
		r.parent[c] = -1
		if r.goalStamp[c] == r.stamp {
			r.pathBuf = append(r.pathBuf[:0], c)
			return r.pathBuf, r.goalGroup[c]
		}
		r.queue = append(r.queue, c)
	}
	for head := 0; head < len(r.queue); head++ {
		cur := r.queue[head]
		r.nbuf = r.lat.NeighborCells(cur, r.nbuf[:0])
		for _, nb := range r.nbuf {
			if r.visited[nb] == r.stamp || !r.freeNaive(nb, t) {
				continue
			}
			r.visited[nb] = r.stamp
			r.parent[nb] = cur
			if r.goalStamp[nb] == r.stamp {
				return r.walkBack(nb), r.goalGroup[nb]
			}
			r.queue = append(r.queue, nb)
		}
	}
	return nil, -1
}

// checkXYNaive walks the horizontal-first candidate cell by cell. With
// claimed set, cells claimed by an earlier arm of the current
// routeXYTreeNaive call never block.
func (r *router) checkXYNaive(src, dst layout.Point, t int, claimed bool) (bool, int) {
	clearAt := 0
	ok := r.lat.walkXY(src, dst, func(ci int) bool {
		if v := r.busyUntil[ci]; v > t && !(claimed && r.claimStamp[ci] == r.claimEpoch) {
			clearAt = v
			return false
		}
		return true
	})
	return ok, clearAt
}

// checkYXNaive is checkXYNaive for the vertical-first candidate.
func (r *router) checkYXNaive(src, dst layout.Point, t int, claimed bool) (bool, int) {
	clearAt := 0
	ok := r.lat.walkYX(src, dst, func(ci int) bool {
		if v := r.busyUntil[ci]; v > t && !(claimed && r.claimStamp[ci] == r.claimEpoch) {
			clearAt = v
			return false
		}
		return true
	})
	return ok, clearAt
}

func (r *router) routeXYNaive(src, dst layout.Point, t int) ([]int, int) {
	ok1, clear1 := r.checkXYNaive(src, dst, t, false)
	if ok1 {
		return walkPath(r.lat.walkXY, src, dst), 0
	}
	ok2, clear2 := r.checkYXNaive(src, dst, t, false)
	if ok2 {
		return walkPath(r.lat.walkYX, src, dst), 0
	}
	if clear2 < clear1 {
		clear1 = clear2
	}
	if clear1 >= deadBusy {
		return r.routeNaive(r.lat.PortsOf(src), r.lat.PortsOf(dst), t)
	}
	return nil, clear1
}

func (r *router) routeXYTreeNaive(control layout.Point, targets []layout.Point, t int) ([]int, int) {
	r.claimEpoch++
	var union []int
	for _, tgt := range targets {
		var arm []int
		ok, clear1 := r.checkXYNaive(control, tgt, t, true)
		if ok {
			arm = walkPath(r.lat.walkXY, control, tgt)
		} else {
			ok2, clear2 := r.checkYXNaive(control, tgt, t, true)
			if !ok2 {
				if clear2 < clear1 {
					clear1 = clear2
				}
				if clear1 >= deadBusy {
					arm, clear1 = r.routeNaive(r.lat.PortsOf(control), r.lat.PortsOf(tgt), t)
					arm = append([]int(nil), arm...)
				}
				if arm == nil {
					return nil, clear1
				}
			} else {
				arm = walkPath(r.lat.walkYX, control, tgt)
			}
		}
		for _, ci := range arm {
			if r.claimStamp[ci] != r.claimEpoch {
				r.claimStamp[ci] = r.claimEpoch
				union = append(union, ci)
			}
		}
	}
	return union, 0
}

func (r *router) routeTreeNaive(groups [][]int, t int) []int {
	if len(groups) == 0 {
		return nil
	}
	if len(groups) == 1 {
		for _, c := range groups[0] {
			if r.freeNaive(c, t) {
				return []int{c}
			}
		}
		return nil
	}
	r.treeEpoch++
	var tree []int
	connected := make([]bool, len(groups))
	first, _ := r.routeNaive(groups[0], groups[1], t)
	if first == nil {
		return nil
	}
	for _, c := range first {
		if r.treeStamp[c] != r.treeEpoch {
			r.treeStamp[c] = r.treeEpoch
			tree = append(tree, c)
		}
	}
	connected[0], connected[1] = true, true
	for {
		remaining := -1
		for gi, done := range connected {
			if !done {
				remaining = gi
				break
			}
		}
		if remaining == -1 {
			return tree
		}
		cells, gi := r.routeFromSetNaive(tree, groups, connected, t)
		if cells == nil {
			return nil
		}
		for _, c := range cells {
			if r.treeStamp[c] != r.treeEpoch {
				r.treeStamp[c] = r.treeEpoch
				tree = append(tree, c)
			}
		}
		connected[gi] = true
	}
}

// oracleRun drives one router through a random query sequence at
// non-decreasing times and fails on the first query whose answer (nil-
// ness, exact path or tree, retry bound, reached group) differs from
// the reference.
func oracleRun(t *testing.T, seed int64, w, h int, defectRate float64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dm := layout.SampleDefects(w, h, defectRate, rng)
	lat := NewLatticeDefective(w, h, dm)
	r := new(router)
	r.use(lat)
	var tiles []layout.Point
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if pt := (layout.Point{X: x, Y: y}); !dm.Has(pt) {
				tiles = append(tiles, pt)
			}
		}
	}
	if len(tiles) < 2 {
		return
	}
	tile := func() layout.Point { return tiles[rng.Intn(len(tiles))] }
	pair := func() (layout.Point, layout.Point) {
		a, b := tile(), tile()
		for b == a {
			b = tile()
		}
		return a, b
	}
	// randomCells returns a port-like cell list: usually a tile's ports,
	// sometimes arbitrary cells (tiles and dead cells included) so the
	// skip paths of both routers are exercised.
	randomCells := func() []int {
		if rng.Intn(6) > 0 {
			return lat.PortsOf(tile())
		}
		cells := make([]int, 1+rng.Intn(4))
		for i := range cells {
			cells[i] = rng.Intn(lat.Cells())
		}
		return cells
	}
	copyPath := func(p []int) []int {
		if p == nil {
			return nil
		}
		return append([]int{}, p...)
	}
	now := 0
	hold := func() int { return now + 1 + rng.Intn(40) }
	check := func(step int, what string, wantPath []int, wantBound int, gotPath []int, gotBound int) {
		t.Helper()
		if (wantPath == nil) != (gotPath == nil) || !reflect.DeepEqual(copyPath(wantPath), copyPath(gotPath)) || wantBound != gotBound {
			t.Fatalf("seed %d %dx%d step %d t=%d %s: reference (%v, %d), bitmap router (%v, %d)",
				seed, w, h, step, now, what, wantPath, wantBound, gotPath, gotBound)
		}
	}
	for step := 0; step < steps; step++ {
		if rng.Intn(3) == 0 {
			now += rng.Intn(12)
		}
		switch rng.Intn(8) {
		case 0, 1: // box or whole-grid BFS between two cell lists
			src, dst := randomCells(), randomCells()
			if rng.Intn(3) == 0 {
				r.setBox([][]int{src, dst}, true, 0)
			} else {
				r.setBox([][]int{src, dst}, false, rng.Intn(4))
			}
			wp, wb := r.routeNaive(src, dst, now)
			wp = copyPath(wp)
			gp, gb := r.route(src, dst, now)
			check(step, "route", wp, wb, gp, gb)
			if gp != nil && rng.Intn(2) == 0 {
				r.reserve(gp, hold())
			}
		case 2, 3: // dimension-ordered pair
			a, b := pair()
			ok1, c1 := r.checkXYNaive(a, b, now, false)
			gok1, gc1 := r.checkXY(a, b, now)
			ok2, c2 := r.checkYXNaive(a, b, now, false)
			gok2, gc2 := r.checkYX(a, b, now)
			if ok1 != gok1 || c1 != gc1 || ok2 != gok2 || c2 != gc2 {
				t.Fatalf("seed %d step %d t=%d check %v->%v: reference XY (%v,%d) YX (%v,%d), bitmap XY (%v,%d) YX (%v,%d)",
					seed, step, now, a, b, ok1, c1, ok2, c2, gok1, gc1, gok2, gc2)
			}
			r.box = lat.wholeGrid()
			wp, wb := r.routeXYNaive(a, b, now)
			wp = copyPath(wp)
			gp, gb := r.routeXY(a, b, now)
			check(step, "routeXY", wp, wb, gp, gb)
			if gp != nil && rng.Intn(3) > 0 {
				r.reserve(gp, hold())
			}
		case 4: // dimension-ordered braid tree
			control := tile()
			targets := make([]layout.Point, 1+rng.Intn(4))
			for i := range targets {
				targets[i] = tile()
				for targets[i] == control {
					targets[i] = tile()
				}
			}
			r.box = lat.wholeGrid()
			wp, wb := r.routeXYTreeNaive(control, targets, now)
			gp, gb := r.routeXYTree(control, targets, now)
			check(step, "routeXYTree", wp, wb, gp, gb)
			if gp != nil && rng.Intn(3) > 0 {
				r.reserve(gp, hold())
			}
		case 5: // greedy Steiner tree in a box or the whole grid
			groups := make([][]int, 1+rng.Intn(4))
			for i := range groups {
				groups[i] = lat.PortsOf(tile())
			}
			r.setBox(groups, rng.Intn(3) == 0, rng.Intn(4))
			want := copyPath(r.routeTreeNaive(groups, now))
			got := r.routeTree(groups, now)
			check(step, "routeTree", want, 0, got, 0)
			if got != nil && rng.Intn(2) == 0 {
				r.reserve(got, hold())
			}
		case 6: // routeFromSet from a fresh path towards other groups
			groups := make([][]int, 2+rng.Intn(3))
			for i := range groups {
				groups[i] = lat.PortsOf(tile())
			}
			r.setBox(groups, rng.Intn(3) == 0, rng.Intn(4))
			seedPath, _ := r.routeNaive(groups[0], groups[1], now)
			if seedPath == nil {
				break
			}
			tree := copyPath(seedPath)
			connected := make([]bool, len(groups))
			connected[0], connected[1] = true, true
			for i := 2; i < len(groups); i++ {
				connected[i] = rng.Intn(4) == 0
			}
			wp, wg := r.routeFromSetNaive(tree, groups, connected, now)
			wp = copyPath(wp)
			gp, gg := r.routeFromSet(tree, groups, connected, now)
			check(step, "routeFromSet", wp, wg, gp, gg)
		default: // raw reservations: random straight runs of cells
			n := 1 + rng.Intn(8)
			cells := make([]int, 0, n)
			x, y := rng.Intn(lat.CW), rng.Intn(lat.CH)
			horiz := rng.Intn(2) == 0
			for i := 0; i < n && x < lat.CW && y < lat.CH; i++ {
				if ci := lat.CellIndex(x, y); !lat.isTile[ci] && (len(lat.dead) == 0 || !lat.dead[ci]) {
					cells = append(cells, ci)
				}
				if horiz {
					x++
				} else {
					y++
				}
			}
			until := hold()
			if rng.Intn(10) == 0 {
				until = now - rng.Intn(3) // already expired
			}
			r.reserve(cells, until)
		}
		if rng.Intn(200) == 0 {
			r.reset()
			now = 0
		}
	}
}

// FuzzRouteOracle checks every router query against the cell-at-a-time
// reference on random defective lattices, under reservation sequences at
// non-decreasing times: box and whole-grid BFS, XY/YX pairs, braid
// trees under both disciplines, and routeFromSet. Each query must agree
// on nil-ness, the exact path and the retry bound, which pins
// Result.Stalls as well as every schedule.
func FuzzRouteOracle(f *testing.F) {
	for _, s := range []struct {
		seed          int64
		w, h, defects uint8
	}{{1, 4, 4, 0}, {2, 9, 3, 10}, {3, 40, 1, 0}, {4, 7, 7, 25}, {5, 70, 2, 5}, {6, 3, 12, 15}} {
		f.Add(s.seed, s.w, s.h, s.defects)
	}
	f.Fuzz(func(t *testing.T, seed int64, w, h, defects uint8) {
		oracleRun(t, seed, 1+int(w)%80, 1+int(h)%40, float64(defects%40)/100, 300)
	})
}

// TestRouteOracle runs the oracle over a fixed spread of shapes,
// including rows wider than one 64-bit word.
func TestRouteOracle(t *testing.T) {
	shapes := []struct{ w, h int }{{2, 2}, {5, 5}, {9, 4}, {33, 2}, {40, 1}, {12, 12}, {70, 3}, {4, 40}}
	for i, s := range shapes {
		for seed := int64(0); seed < 6; seed++ {
			oracleRun(t, seed*31+int64(i), s.w, s.h, []float64{0, 0.05, 0.15}[seed%3], 400)
		}
	}
}
