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
// walk the fixed cell sequence with direct index arithmetic over the
// busyUntil array instead of the closure-based walkXY/walkYX visitors,
// stopping at the first blocked cell and reporting its expiry.
// Reservations only ever extend (a busy cell can never be re-reserved
// before it expires), so a candidate provably stays blocked at least
// until its first blocked cell has expired — making that expiry a sound
// wake-up time for the event loop's retry heap.

// walkXY visits the horizontal-first path between tiles src and dst
// cell by cell without materializing it. visit returning false aborts the
// walk; walkXY then returns false. Paths run on even (all-channel) rows
// and columns, entering/leaving tiles through adjacent port cells.
func (l *Lattice) walkXY(src, dst layout.Point, visit func(ci int) bool) bool {
	sx, sy := 2*src.X+1, 2*src.Y+1
	dx, dy := 2*dst.X+1, 2*dst.Y+1
	// Horizontal highway row adjacent to src, biased toward dst.
	ry := sy + 1
	if dy < sy {
		ry = sy - 1
	}
	// Vertical highway column adjacent to dst, biased toward src.
	cx := dx + 1
	if sx < dx {
		cx = dx - 1
	}
	if !visit(l.CellIndex(sx, ry)) { // exit src vertically
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
	// Vertical highway column adjacent to src, biased toward dst.
	cx := sx + 1
	if dx < sx {
		cx = sx - 1
	}
	// Horizontal highway row adjacent to dst, biased toward src.
	ry := dy + 1
	if sy < dy {
		ry = dy - 1
	}
	if !visit(l.CellIndex(cx, sy)) { // exit src horizontally
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

// xyPathInto materializes the horizontal-first path into buf (reused).
func (l *Lattice) xyPathInto(buf []int, src, dst layout.Point) []int {
	buf = buf[:0]
	l.walkXY(src, dst, func(ci int) bool {
		if len(buf) == 0 || buf[len(buf)-1] != ci {
			buf = append(buf, ci)
		}
		return true
	})
	return buf
}

// yxPathInto materializes the vertical-first path into buf (reused).
func (l *Lattice) yxPathInto(buf []int, src, dst layout.Point) []int {
	buf = buf[:0]
	l.walkYX(src, dst, func(ci int) bool {
		if len(buf) == 0 || buf[len(buf)-1] != ci {
			buf = append(buf, ci)
		}
		return true
	})
	return buf
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

// checkXY scans the horizontal-first candidate between src and dst with
// direct index arithmetic (the cell sequence mirrors walkXY exactly) and
// reports whether it is fully free at t. When blocked, clearAt is the
// first blocked cell's busyUntil — a sound earliest-retry bound for this
// candidate. With claimed set, cells claimed by an earlier arm of the
// current routeXYTree call never block (arms of one braid tree may
// overlap).
func (r *router) checkXY(src, dst layout.Point, t int, claimed bool) (ok bool, clearAt int) {
	cw := r.lat.CW
	bu := r.busyUntil
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
	blocked := func(ci int) (int, bool) {
		if v := bu[ci]; v > t && !(claimed && r.claimStamp[ci] == r.claimEpoch) {
			return v, true
		}
		return 0, false
	}
	base := ry * cw
	if v, bad := blocked(base + sx); bad { // exit src vertically
		return false, v
	}
	if cx >= sx { // horizontal highway: row ry, columns (sx..cx]
		for x := sx + 1; x <= cx; x++ {
			if v, bad := blocked(base + x); bad {
				return false, v
			}
		}
	} else {
		for x := sx - 1; x >= cx; x-- {
			if v, bad := blocked(base + x); bad {
				return false, v
			}
		}
	}
	if dy >= ry { // vertical highway: column cx, rows (ry..dy]
		for ci := (ry+1)*cw + cx; ci <= dy*cw+cx; ci += cw {
			if v, bad := blocked(ci); bad {
				return false, v
			}
		}
	} else {
		for ci := (ry-1)*cw + cx; ci >= dy*cw+cx; ci -= cw {
			if v, bad := blocked(ci); bad {
				return false, v
			}
		}
	}
	return true, 0
}

// checkYX is checkXY for the vertical-first candidate (mirrors walkYX).
func (r *router) checkYX(src, dst layout.Point, t int, claimed bool) (ok bool, clearAt int) {
	cw := r.lat.CW
	bu := r.busyUntil
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
	blocked := func(ci int) (int, bool) {
		if v := bu[ci]; v > t && !(claimed && r.claimStamp[ci] == r.claimEpoch) {
			return v, true
		}
		return 0, false
	}
	if v, bad := blocked(sy*cw + cx); bad { // exit src horizontally
		return false, v
	}
	if ry >= sy { // vertical highway: column cx, rows (sy..ry]
		for ci := (sy+1)*cw + cx; ci <= ry*cw+cx; ci += cw {
			if v, bad := blocked(ci); bad {
				return false, v
			}
		}
	} else {
		for ci := (sy-1)*cw + cx; ci >= ry*cw+cx; ci -= cw {
			if v, bad := blocked(ci); bad {
				return false, v
			}
		}
	}
	base := ry * cw
	if dx >= cx { // horizontal highway: row ry, columns (cx..dx]
		for x := cx + 1; x <= dx; x++ {
			if v, bad := blocked(base + x); bad {
				return false, v
			}
		}
	} else {
		for x := cx - 1; x >= dx; x-- {
			if v, bad := blocked(base + x); bad {
				return false, v
			}
		}
	}
	return true, 0
}

// routeXY tries the XY then the YX candidate between two tiles and
// returns the first conflict-free one (aliasing the router's path
// buffer). When both are blocked it returns nil and the earliest cycle at
// which either candidate could possibly clear.
func (r *router) routeXY(src, dst layout.Point, t int) ([]int, int) {
	ok1, clear1 := r.checkXY(src, dst, t, false)
	if ok1 {
		r.pathBuf = r.lat.xyPathInto(r.pathBuf, src, dst)
		return r.pathBuf, 0
	}
	ok2, clear2 := r.checkYX(src, dst, t, false)
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
// blocked. Claimed-arm membership is tracked in the stamp-indexed
// claimStamp array; a busy cell can never be claimed (the first arm
// crossing it would itself be blocked), so the failing arm's bound
// remains sound in the presence of claims.
func (r *router) routeXYTree(control layout.Point, targets []layout.Point, t int) ([]int, int) {
	r.claimEpoch++
	union := r.unionBuf[:0]
	for _, tgt := range targets {
		var arm []int
		ok, clear1 := r.checkXY(control, tgt, t, true)
		if ok {
			arm = r.lat.xyPathInto(r.pathBuf, control, tgt)
		} else {
			ok2, clear2 := r.checkYX(control, tgt, t, true)
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
