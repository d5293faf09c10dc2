package mesh

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

func newRouter(lat *Lattice) *router {
	n := lat.Cells()
	r := &router{
		lat:        lat,
		busyUntil:  make([]int, n),
		box:        lat.wholeGrid(),
		visited:    make([]int, n),
		parent:     make([]int, n),
		goalStamp:  make([]int, n),
		goalGroup:  make([]int, n),
		claimStamp: make([]int, n),
		treeStamp:  make([]int, n),
	}
	r.applyDead()
	return r
}

// applyDead re-marks the lattice's defect cells as permanently reserved.
func (r *router) applyDead() {
	if r.lat.dead == nil {
		return
	}
	for ci, d := range r.lat.dead {
		if d {
			r.busyUntil[ci] = deadBusy
		}
	}
}

// reset clears the reservations so the router can serve a fresh
// simulation on the same lattice. Stamp-indexed scratch needs no
// clearing: the stamps keep counting up across runs.
func (r *router) reset() {
	clear(r.busyUntil)
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
// structural (no reservation to wait out). The returned path aliases the
// router's scratch and is only valid until the next routing call.
func (r *router) route(srcPorts, dstPorts []int, t int) ([]int, int) {
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
	r.treeEpoch++
	tree := r.treeBuf[:0]
	if cap(r.connBuf) < len(groups) {
		r.connBuf = make([]bool, len(groups))
	}
	connected := r.connBuf[:len(groups)]
	clear(connected)
	// Seed with the first reachable path between group 0 and any other
	// group; then grow.
	first, _ := r.route(groups[0], groups[1], t)
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

// routeFromSet BFS-expands from every tree cell simultaneously and stops
// at the first free port cell belonging to an unconnected group,
// returning the connecting path and the group index (nil, -1 when no
// group is reachable).
func (r *router) routeFromSet(tree []int, groups [][]int, connected []bool, t int) ([]int, int) {
	r.stamp++
	r.queue = r.queue[:0]
	goals := 0
	for gi, done := range connected {
		if done {
			continue
		}
		for _, c := range groups[gi] {
			if r.free(c, t) {
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
			if r.visited[nb] == r.stamp || !r.free(nb, t) {
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

// reserve marks cells busy until time until.
func (r *router) reserve(cells []int, until int) {
	for _, c := range cells {
		r.busyUntil[c] = until
	}
}
