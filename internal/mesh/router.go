package mesh

import "slices"

// router finds conflict-free channel paths on a lattice with time-stamped
// cell reservations. busyUntil[cell] holds the cycle at which the cell
// becomes free; a cell is usable at time t when busyUntil[cell] <= t.
//
// Routing is confined to the bounding box of the braid's endpoints plus a
// margin (the box field), reflecting the straight/L-shaped braid paths of
// the paper's toolchain [1]: a braid does not wander across the machine to
// dodge congestion, so crossing interaction edges genuinely serialize —
// the behaviour behind the paper's Fig. 6 crossing/latency correlation.
// Setting the box to the whole grid recovers fully adaptive routing.
//
// Most queries fail, so the router decides failure a word at a time:
// two maybe-busy bitmaps (busy.go) mirror busyUntil, the XY/YX checks
// scan them for the first blocked cell, and route and routeTree first
// flood-fill the free cells of the box and run a BFS only when every
// goal they need is reachable. Paths, retry bounds and therefore every
// schedule are those of the plain BFS and cell walks.
//
// Contract: between resets, query times never decrease. The bitmaps
// clear an expired reservation's bits lazily, when a scan first finds
// them at a later time, which is sound only on a forward-moving clock;
// Simulate's event loop provides one.
//
// All scratch state (BFS frontier, goal/claim/tree membership) is
// stamp-indexed: a slot belongs to the current query iff it carries the
// current stamp, so queries never clear their scratch and a router is
// reusable across arbitrarily many simulations without per-call
// allocations. Returned paths alias the router's internal buffers and are
// only valid until the next routing call.
type router struct {
	lat       *Lattice
	busyUntil []int
	box       cellBox
	// now is the time of the latest query (the bitmaps' clock).
	now int
	// rowBusy holds cell (x, y) at bit x%64 of word y*rowWords+x/64;
	// colBusy holds it at bit y%64 of word x*colWords+y/64. cleanAt[w]
	// is now+1 when row word w was last purged of stale bits at now.
	rowBusy, colBusy   []uint64
	rowWords, colWords int
	cleanAt            []int
	divCW              uint64 // cellXY's multiplier, ceil(2^64/CW)
	// Flood-fill scratch over the current box: fillNW words per box
	// row; free cells, reached cells and goal cells, one mask each.
	fillNW                        int
	fillFree, fillReach, fillGoal []uint64
	fillTmp                       []uint64
	fillStack                     []int
	fillQueued                    []bool
	// BFS scratch, reused across calls; visited stamps avoid clearing.
	stamp   int
	visited []int
	parent  []int
	queue   []int
	nbuf    []int
	// goalStamp/goalGroup replace the per-call goal maps of route and
	// routeFromSet: a cell is a goal iff goalStamp[c] == stamp, and then
	// goalGroup[c] names the port group it belongs to.
	goalStamp []int
	goalGroup []int
	// claimStamp marks cells already claimed by earlier arms of the
	// current routeXYTree call (epoch claimEpoch).
	claimStamp []int
	claimEpoch int
	// treeStamp marks cells already in the current routeTree tree.
	treeStamp []int
	treeEpoch int
	// Path buffers reused across calls.
	pathBuf  []int
	unionBuf []int
	treeBuf  []int
	connBuf  []bool
}

// cellBox is an inclusive cell-coordinate rectangle.
type cellBox struct {
	minX, minY, maxX, maxY int
}

func (b cellBox) contains(cx, cy int) bool {
	return cx >= b.minX && cx <= b.maxX && cy >= b.minY && cy <= b.maxY
}

func emptyBox() cellBox {
	return cellBox{minX: 1 << 30, minY: 1 << 30, maxX: -1, maxY: -1}
}

func (b cellBox) extend(l *Lattice, cells []int) cellBox {
	for _, ci := range cells {
		cx, cy := ci%l.CW, ci/l.CW
		if cx < b.minX {
			b.minX = cx
		}
		if cy < b.minY {
			b.minY = cy
		}
		if cx > b.maxX {
			b.maxX = cx
		}
		if cy > b.maxY {
			b.maxY = cy
		}
	}
	return b
}

func (b cellBox) expand(l *Lattice, margin int) cellBox {
	b.minX -= margin
	b.minY -= margin
	b.maxX += margin
	b.maxY += margin
	if b.minX < 0 {
		b.minX = 0
	}
	if b.minY < 0 {
		b.minY = 0
	}
	if b.maxX >= l.CW {
		b.maxX = l.CW - 1
	}
	if b.maxY >= l.CH {
		b.maxY = l.CH - 1
	}
	return b
}

// wholeGrid returns a box covering every cell.
func (l *Lattice) wholeGrid() cellBox {
	return cellBox{minX: 0, minY: 0, maxX: l.CW - 1, maxY: l.CH - 1}
}

// deadBusy is the reservation expiry written into every dead (defect-
// region) cell: far beyond any reachable cycle, so the uniform
// busyUntil checks in the BFS and dimension-ordered routers treat dead
// cells as permanently blocked, and a braid with no live candidate
// parks until the deadlock detector reports it — never a hang.
const deadBusy = 1 << 60

// use readies r for a fresh simulation on lat. Arenas are regrown only
// when lat needs more than they hold, so a router serves lattices of
// any size without allocating once it has seen the largest. The
// reservation state is cleared by reset; the stamp-indexed scratch keeps
// its stale stamps, all below the current ones, so it needs no clearing.
func (r *router) use(lat *Lattice) {
	n := lat.Cells()
	r.lat = lat
	r.rowWords, r.colWords = (lat.CW+63)/64, (lat.CH+63)/64
	r.divCW = ^uint64(0)/uint64(lat.CW) + 1
	rw := lat.CH * r.rowWords
	r.busyUntil = fit(r.busyUntil, n)
	r.rowBusy = fit(r.rowBusy, rw)
	r.colBusy = fit(r.colBusy, lat.CW*r.colWords)
	r.cleanAt = fit(r.cleanAt, rw)
	r.fillFree = fit(r.fillFree, rw)
	r.fillReach = fit(r.fillReach, rw)
	r.fillGoal = fit(r.fillGoal, rw)
	r.fillTmp = fit(r.fillTmp, r.rowWords)
	r.fillQueued = fit(r.fillQueued, lat.CH)
	r.visited = fit(r.visited, n)
	r.parent = fit(r.parent, n)
	r.goalStamp = fit(r.goalStamp, n)
	r.goalGroup = fit(r.goalGroup, n)
	r.claimStamp = fit(r.claimStamp, n)
	r.treeStamp = fit(r.treeStamp, n)
	r.reset()
}

// applyDead re-marks the lattice's defect cells as permanently reserved.
func (r *router) applyDead() {
	for ci, d := range r.lat.dead {
		if d {
			r.busyUntil[ci] = deadBusy
			r.setBusy(r.cellXY(ci))
		}
	}
}

// reset clears the reservations so the router can serve a fresh
// simulation on the same lattice. Stamp-indexed scratch needs no
// clearing: the stamps keep counting up across runs.
func (r *router) reset() {
	clear(r.busyUntil)
	clear(r.rowBusy)
	clear(r.colBusy)
	clear(r.cleanAt)
	r.now = 0
	r.applyDead()
	r.box = r.lat.wholeGrid()
}

// setBox confines routing to the bounding box of the port groups plus
// margin, or to the whole grid when adaptive.
func (r *router) setBox(groups [][]int, adaptive bool, margin int) {
	if adaptive {
		r.box = r.lat.wholeGrid()
		return
	}
	b := emptyBox()
	for _, gp := range groups {
		b = b.extend(r.lat, gp)
	}
	r.box = b.expand(r.lat, margin)
}

func (r *router) free(ci, t int) bool {
	if r.lat.isTile[ci] || r.busyUntil[ci] > t {
		return false
	}
	return r.box.contains(ci%r.lat.CW, ci/r.lat.CW)
}

// route finds a shortest path of free channel cells at time t connecting
// any cell of srcPorts to any cell of dstPorts (inclusive of both port
// cells). When no conflict-free path exists it returns nil plus a sound
// earliest-retry bound: the smallest busyUntil among the reserved cells
// that could possibly extend the search (busy cells on the frontier of
// the reachable region and busy port cells). Until one of those
// reservations expires the reachable region cannot grow, so the query is
// guaranteed to keep failing; a zero bound means the failure is
// structural (no reservation to wait out). When no destination port is
// free the bound covers the destination ports only. The returned path
// aliases the router's scratch and is only valid until the next routing
// call.
//
// A flood fill decides reachability first; the BFS runs only when a
// goal is reachable, so paths are exactly the BFS's. On failure the
// fill's reached region is the component a failing BFS visits in full,
// so the busy cells next to it are exactly the cells that BFS notes.
func (r *router) route(srcPorts, dstPorts []int, t int) ([]int, int) {
	r.now = t
	minExp := 0
	note := func(bu int) {
		if minExp == 0 || bu < minExp {
			minExp = bu
		}
	}
	r.stamp++
	r.queue = r.queue[:0]
	goals := 0
	for _, c := range dstPorts {
		if r.lat.isTile[c] || !r.box.contains(c%r.lat.CW, c/r.lat.CW) {
			continue
		}
		if bu := r.busyUntil[c]; bu > t {
			note(bu)
			continue
		}
		if goals == 0 {
			r.fillBox(t)
		}
		i, b := r.fillBit(c)
		r.fillGoal[i] |= b
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
		i, b := r.fillBit(c)
		r.fillReach[i] |= b
		r.bfsSeed(c)
	}
	if r.fillReaches() {
		return r.walkBack(r.bfs(t)), 0
	}
	if bu := r.fillFrontier(); bu != 0 {
		note(bu)
	}
	return nil, minExp
}

// bfsSeed makes cell c a source of the current stamp's search; a
// repeated source is a no-op.
func (r *router) bfsSeed(c int) {
	if r.visited[c] == r.stamp {
		return
	}
	r.visited[c] = r.stamp
	r.parent[c] = -1
	r.queue = append(r.queue, c)
}

// bfs searches free box cells breadth-first from the seeded queue for a
// goal of the current stamp: the first seed that is a goal, else the
// first goal reached. It returns that cell, or -1 when none is.
func (r *router) bfs(t int) int {
	for _, c := range r.queue {
		if r.goalStamp[c] == r.stamp {
			return c
		}
	}
	for head := 0; head < len(r.queue); head++ {
		cur := r.queue[head]
		r.nbuf = r.lat.NeighborCells(cur, r.nbuf[:0])
		for _, nb := range r.nbuf {
			if r.visited[nb] == r.stamp || !r.free(nb, t) {
				continue
			}
			r.visited[nb] = r.stamp
			r.parent[nb] = cur
			if r.goalStamp[nb] == r.stamp {
				return nb
			}
			r.queue = append(r.queue, nb)
		}
	}
	return -1
}

// walkBack materializes the BFS path ending at end into the shared path
// buffer (end first, as the original recursive walk produced it).
func (r *router) walkBack(end int) []int {
	path := r.pathBuf[:0]
	for c := end; c != -1; c = r.parent[c] {
		path = append(path, c)
	}
	r.pathBuf = path
	return path
}

// routeTree connects all port groups with a connected set of free channel
// cells at time t (a greedy Steiner tree: start from the first group,
// repeatedly BFS from the current tree to the nearest unconnected group).
// Returns nil when any group cannot be reached. The tree aliases the
// router's scratch and is only valid until the next routing call.
func (r *router) routeTree(groups [][]int, t int) []int {
	if len(groups) == 0 {
		return nil
	}
	if len(groups) == 1 {
		// Claim a single port cell so even degenerate "trees" occupy space.
		for _, c := range groups[0] {
			if r.free(c, t) {
				r.treeBuf = append(r.treeBuf[:0], c)
				return r.treeBuf
			}
		}
		return nil
	}
	first := r.treeFirstPath(groups, t)
	if first == nil {
		return nil
	}
	r.treeEpoch++
	tree := r.treeBuf[:0]
	if cap(r.connBuf) < len(groups) {
		r.connBuf = make([]bool, len(groups))
	}
	connected := r.connBuf[:len(groups)]
	clear(connected)
	// Seed with the first path, from group 0 to group 1; then grow.
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
			r.treeBuf = tree
			return tree
		}
		// BFS from the whole tree to the nearest cell of any unconnected
		// group; claim the path for that group.
		cells, gi := r.routeFromSet(tree, groups, connected, t)
		if cells == nil {
			r.treeBuf = tree[:0]
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

// treeFirstPath returns the greedy tree's first path, a shortest path
// of free cells from group 0's free ports to group 1's, or nil when
// some group after the first has no free port in the region reachable
// from group 0's. The tree only ever grows through free cells of the
// component its first path lies in, and that component is part of this
// region, so on nil routeTree is bound to fail and no BFS runs.
func (r *router) treeFirstPath(groups [][]int, t int) []int {
	r.now = t
	for _, g := range groups {
		if !slices.ContainsFunc(g, func(c int) bool { return r.free(c, t) }) {
			return nil
		}
	}
	r.fillBox(t)
	r.stamp++
	r.queue = r.queue[:0]
	for _, c := range groups[0] {
		if r.free(c, t) {
			i, b := r.fillBit(c)
			r.fillReach[i] |= b
			r.bfsSeed(c)
		}
	}
	r.fillReaches()
	for gi, g := range groups[1:] {
		reached := false
		for _, c := range g {
			if r.free(c, t) {
				if gi == 0 {
					r.goalStamp[c] = r.stamp
				}
				i, b := r.fillBit(c)
				reached = reached || r.fillReach[i]&b != 0
			}
		}
		if !reached {
			return nil
		}
	}
	return r.walkBack(r.bfs(t))
}

// routeFromSet BFS-expands from every tree cell simultaneously and stops
// at the first free port cell belonging to an unconnected group,
// returning the connecting path and the group index (nil, -1 when no
// group is reachable).
func (r *router) routeFromSet(tree []int, groups [][]int, connected []bool, t int) ([]int, int) {
	r.stamp++
	r.queue = r.queue[:0]
	for gi, done := range connected {
		if done {
			continue
		}
		for _, c := range groups[gi] {
			if r.free(c, t) {
				r.goalStamp[c] = r.stamp
				r.goalGroup[c] = gi
			}
		}
	}
	for _, c := range tree {
		r.bfsSeed(c)
	}
	end := r.bfs(t)
	if end < 0 {
		return nil, -1
	}
	return r.walkBack(end), r.goalGroup[end]
}

// reserve marks cells busy until time until. A reservation that has
// already expired at the router's clock clears its cells' row bits
// instead, since only the row-major map must be exact.
func (r *router) reserve(cells []int, until int) {
	for _, c := range cells {
		r.busyUntil[c] = until
		if until > r.now {
			r.setBusy(r.cellXY(c))
		} else {
			r.clearRow(r.cellXY(c))
		}
	}
}
