package mesh

import "magicstate/internal/layout"

// Dimension-ordered routing: a braid between two tiles follows one of two
// rectilinear candidate paths (horizontal-then-vertical or
// vertical-then-horizontal). If both are blocked the braid stalls. This is
// the braid model of the paper's Fig. 1: crossing braids cannot execute
// simultaneously and do not wander around each other.
//
// The candidate scan is the simulator's single hottest loop (every
// blocked gate rescans both candidates when it wakes), so checkXY/checkYX
// scan the candidate's row and column runs over the router's busy
// bitmaps, stopping at the first blocked cell and reporting its expiry.
// Reservations only ever extend (a busy cell can never be re-reserved
// before it expires), so a candidate provably stays blocked at least
// until its first blocked cell has expired — making that expiry a sound
// wake-up time for the event loop's retry heap.

// xyLegs returns the horizontal-first candidate between tiles src and
// dst as two runs: row ry from column sx to cx (the cell that exits src
// vertically, then the horizontal highway), and column cx from row
// ry+sign(dy-ry) to dy (the vertical highway into dst's port). Paths
// run on even (all-channel) rows and columns, entering and leaving tiles
// through adjacent port cells; the highway row is adjacent to src and
// biased toward dst, the highway column adjacent to dst and biased
// toward src. Tiles sit on odd coordinates, so cx != sx and ry != dy:
// both runs are non-empty and share no cell.
func xyLegs(src, dst layout.Point) (ry, sx, cx, dy int) {
	sx, sy := 2*src.X+1, 2*src.Y+1
	dx, dy := 2*dst.X+1, 2*dst.Y+1
	ry = sy + 1
	if dy < sy {
		ry = sy - 1
	}
	cx = dx + 1
	if sx < dx {
		cx = dx - 1
	}
	return ry, sx, cx, dy
}

// yxLegs is xyLegs for the vertical-first candidate: column cx from row
// sy to ry (the cell that exits src horizontally, then the vertical
// highway), and row ry from column cx+sign(dx-cx) to dx.
func yxLegs(src, dst layout.Point) (cx, sy, ry, dx int) {
	sx, sy := 2*src.X+1, 2*src.Y+1
	dx, dy := 2*dst.X+1, 2*dst.Y+1
	cx = sx + 1
	if dx < sx {
		cx = sx - 1
	}
	ry = dy + 1
	if sy < dy {
		ry = dy - 1
	}
	return cx, sy, ry, dx
}

// appendRow appends the cells of row y from column x0 to x1 inclusive,
// in walk order.
func (l *Lattice) appendRow(buf []int, y, x0, x1 int) []int {
	for x, step := x0, sign(x1-x0); ; x += step {
		buf = append(buf, y*l.CW+x)
		if x == x1 {
			return buf
		}
	}
}

// appendCol appends the cells of column x from row y0 to y1 inclusive,
// in walk order.
func (l *Lattice) appendCol(buf []int, x, y0, y1 int) []int {
	for y, step := y0, sign(y1-y0); ; y += step {
		buf = append(buf, y*l.CW+x)
		if y == y1 {
			return buf
		}
	}
}

// xyPathInto materializes the horizontal-first path into buf (reused).
func (l *Lattice) xyPathInto(buf []int, src, dst layout.Point) []int {
	ry, sx, cx, dy := xyLegs(src, dst)
	return l.appendCol(l.appendRow(buf[:0], ry, sx, cx), cx, ry+sign(dy-ry), dy)
}

// yxPathInto materializes the vertical-first path into buf (reused).
func (l *Lattice) yxPathInto(buf []int, src, dst layout.Point) []int {
	cx, sy, ry, dx := yxLegs(src, dst)
	return l.appendRow(l.appendCol(buf[:0], cx, sy, ry), ry, cx+sign(dx-cx), dx)
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// checkXY scans the horizontal-first candidate between src and dst and
// reports whether it is fully free at t. When blocked, clearAt is the
// first blocked cell's busyUntil in walk order — a sound earliest-retry
// bound for this candidate. Each of the candidate's two runs (xyLegs)
// is scanned a word at a time over the busy bitmaps.
func (r *router) checkXY(src, dst layout.Point, t int) (ok bool, clearAt int) {
	r.now = t
	ry, sx, cx, dy := xyLegs(src, dst)
	if v := r.scanRow(ry, sx, cx, t); v != 0 {
		return false, v
	}
	if v := r.scanCol(cx, ry+sign(dy-ry), dy, t); v != 0 {
		return false, v
	}
	return true, 0
}

// checkYX is checkXY for the vertical-first candidate (yxLegs).
func (r *router) checkYX(src, dst layout.Point, t int) (ok bool, clearAt int) {
	r.now = t
	cx, sy, ry, dx := yxLegs(src, dst)
	if v := r.scanCol(cx, sy, ry, t); v != 0 {
		return false, v
	}
	if v := r.scanRow(ry, cx+sign(dx-cx), dx, t); v != 0 {
		return false, v
	}
	return true, 0
}

// routeXY tries the XY then the YX candidate between two tiles and
// returns the first conflict-free one (aliasing the router's path
// buffer). When both are blocked it returns nil and the earliest cycle at
// which either candidate could possibly clear.
func (r *router) routeXY(src, dst layout.Point, t int) ([]int, int) {
	ok1, clear1 := r.checkXY(src, dst, t)
	if ok1 {
		r.pathBuf = r.lat.xyPathInto(r.pathBuf, src, dst)
		return r.pathBuf, 0
	}
	ok2, clear2 := r.checkYX(src, dst, t)
	if ok2 {
		r.pathBuf = r.lat.yxPathInto(r.pathBuf, src, dst)
		return r.pathBuf, 0
	}
	if clear2 < clear1 {
		clear1 = clear2
	}
	if clear1 >= deadBusy {
		// Both rectilinear candidates are severed by a fabrication-defect
		// region — no reservation will ever expire to unblock them. This
		// is the one case where a braid leaves the L-shaped discipline:
		// the control software would precompute a detour around known-bad
		// tiles, so route adaptively (mere congestion still stalls).
		return r.route(r.lat.PortsOf(src), r.lat.PortsOf(dst), t)
	}
	return nil, clear1
}

// routeXYTree builds a multi-target braid under dimension-ordered routing:
// one arm per target, each an XY or YX candidate from the control, where
// arms of the same gate may overlap one another (a braid tree is a single
// topological defect). Returns the union of cells (aliasing the router's
// union buffer), or nil plus an earliest-retry bound if any arm is
// blocked. The stamp-indexed claimStamp array dedupes the union. Arms
// need no exemption for cells an earlier arm claimed: the tree reserves
// nothing until it is whole, so those cells are still free at t.
func (r *router) routeXYTree(control layout.Point, targets []layout.Point, t int) ([]int, int) {
	r.claimEpoch++
	union := r.unionBuf[:0]
	for _, tgt := range targets {
		var arm []int
		ok, clear1 := r.checkXY(control, tgt, t)
		if ok {
			arm = r.lat.xyPathInto(r.pathBuf, control, tgt)
		} else {
			ok2, clear2 := r.checkYX(control, tgt, t)
			if !ok2 {
				if clear2 < clear1 {
					clear1 = clear2
				}
				if clear1 >= deadBusy {
					// Defect-severed arm: detour adaptively, as routeXY
					// does for pairs. Arms may overlap claimed cells of
					// earlier arms (they are free in busyUntil until the
					// whole tree reserves), so a plain BFS is sound here.
					arm, clear1 = r.route(r.lat.PortsOf(control), r.lat.PortsOf(tgt), t)
				}
				if arm == nil {
					r.unionBuf = union[:0]
					return nil, clear1
				}
			} else {
				arm = r.lat.yxPathInto(r.pathBuf, control, tgt)
			}
		}
		r.pathBuf = arm
		for _, ci := range arm {
			if r.claimStamp[ci] != r.claimEpoch {
				r.claimStamp[ci] = r.claimEpoch
				union = append(union, ci)
			}
		}
	}
	r.unionBuf = union
	return union, 0
}
