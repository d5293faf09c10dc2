package mesh

import "math/bits"

// Busy bitmaps: the router keeps one "maybe busy" bit per cell twice,
// row-major (rowBusy) for row scans and the flood fill, column-major
// (colBusy) for column scans. The invariants, for the router's clock
// now (the time of its latest query):
//
//   - a cell busy at now (busyUntil > now) has its bit set in both maps;
//   - a set bit may be stale (its reservation has expired), so a scan
//     that lands on one reads busyUntil and clears the bit if stale, in
//     the map it scans;
//   - if cleanAt[w] == now+1, row-major word w holds no stale bit.
//
// Clearing a stale bit is sound only because query times never
// decrease between resets: a cell free at t stays free at every later
// query until it is reserved again. Simulate's clock only moves
// forward, so it meets this contract.

// tileBits marks the tile cells of an odd cell row: tiles sit at odd x,
// and 64 is even, so bit i of any word is a tile iff i is odd.
const tileBits = 0xAAAAAAAAAAAAAAAA

// spanMask returns the bits of word w (cells 64w..64w+63) that lie in
// the inclusive cell range [lo, hi].
func spanMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if b := lo - w<<6; b > 0 {
		m <<= uint(b)
	}
	if b := w<<6 + 63 - hi; b > 0 {
		m &= ^uint64(0) >> uint(b)
	}
	return m
}

// setBusy marks cell (x, y) maybe-busy in both bitmaps.
func (r *router) setBusy(x, y int) {
	r.rowBusy[y*r.rowWords+x>>6] |= 1 << uint(x&63)
	r.colBusy[x*r.colWords+y>>6] |= 1 << uint(y&63)
}

// clearRow and clearCol clear cell (x, y)'s bit in one bitmap. Each map
// keeps its invariant alone, so a scan clears a stale bit only in the
// map it reads.
func (r *router) clearRow(x, y int) { r.rowBusy[y*r.rowWords+x>>6] &^= 1 << uint(x&63) }
func (r *router) clearCol(x, y int) { r.colBusy[x*r.colWords+y>>6] &^= 1 << uint(y&63) }

// cellXY splits cell index c into its coordinates with one multiply:
// divCW is ceil(2^64/CW), and for 32-bit c and CW the high word of
// divCW*c is exactly c/CW (Lemire, Kaser and Kurz, "Faster Remainder by
// Direct Computation", 2019).
func (r *router) cellXY(c int) (x, y int) {
	if r.divCW == 0 { // CW == 1: ceil(2^64/1) does not fit
		return 0, c
	}
	hi, _ := bits.Mul64(r.divCW, uint64(c))
	y = int(hi)
	return c - y*r.lat.CW, y
}

// scanRow returns the busyUntil of the first cell of row y busy at t,
// walking from column x0 to column x1 (either direction, inclusive), or
// 0 when the whole run is free. Stale bits it passes are cleared.
func (r *router) scanRow(y, x0, x1, t int) int {
	row := r.rowBusy[y*r.rowWords:]
	bu := r.busyUntil[y*r.lat.CW:]
	if x0 <= x1 {
		for w := x0 >> 6; w <= x1>>6; w++ {
			for m := row[w] & spanMask(w, x0, x1); m != 0; m &= m - 1 {
				x := w<<6 | bits.TrailingZeros64(m)
				if v := bu[x]; v > t {
					return v
				}
				r.clearRow(x, y)
			}
		}
		return 0
	}
	for w := x0 >> 6; w >= x1>>6; w-- {
		for m := row[w] & spanMask(w, x1, x0); m != 0; {
			b := 63 - bits.LeadingZeros64(m)
			x := w<<6 | b
			if v := bu[x]; v > t {
				return v
			}
			r.clearRow(x, y)
			m &^= 1 << uint(b)
		}
	}
	return 0
}

// scanCol is scanRow for column x, walking from row y0 to row y1.
func (r *router) scanCol(x, y0, y1, t int) int {
	col := r.colBusy[x*r.colWords:]
	cw := r.lat.CW
	if y0 <= y1 {
		for w := y0 >> 6; w <= y1>>6; w++ {
			for m := col[w] & spanMask(w, y0, y1); m != 0; m &= m - 1 {
				y := w<<6 | bits.TrailingZeros64(m)
				if v := r.busyUntil[y*cw+x]; v > t {
					return v
				}
				r.clearCol(x, y)
			}
		}
		return 0
	}
	for w := y0 >> 6; w >= y1>>6; w-- {
		for m := col[w] & spanMask(w, y1, y0); m != 0; {
			b := 63 - bits.LeadingZeros64(m)
			y := w<<6 | b
			if v := r.busyUntil[y*cw+x]; v > t {
				return v
			}
			r.clearCol(x, y)
			m &^= 1 << uint(b)
		}
	}
	return 0
}

// fillBox prepares a flood fill over the router's box at time t: it
// clears every stale bit of the box's row words (each word at most once
// per query time) and loads the free mask of each box row (free, in the
// box, not a tile) into fillFree, zeroing fillReach and fillGoal. Row i
// of the box is words [i*nw, (i+1)*nw) of each scratch array.
func (r *router) fillBox(t int) {
	b := r.box
	w0, w1 := b.minX>>6, b.maxX>>6
	nw := w1 - w0 + 1
	r.fillNW = nw
	n := (b.maxY - b.minY + 1) * nw
	r.fillFree, r.fillReach, r.fillGoal = r.fillFree[:n], r.fillReach[:n], r.fillGoal[:n]
	clear(r.fillReach)
	clear(r.fillGoal)
	cw := r.lat.CW
	for y := b.minY; y <= b.maxY; y++ {
		var tiles uint64
		if y&1 == 1 {
			tiles = tileBits
		}
		out := r.fillFree[(y-b.minY)*nw:]
		for w := w0; w <= w1; w++ {
			wi := y*r.rowWords + w
			if r.cleanAt[wi] != t+1 {
				for m := r.rowBusy[wi]; m != 0; m &= m - 1 {
					x := w<<6 | bits.TrailingZeros64(m)
					if r.busyUntil[y*cw+x] <= t {
						r.clearRow(x, y)
					}
				}
				r.cleanAt[wi] = t + 1
			}
			out[w-w0] = ^(r.rowBusy[wi] | tiles) & spanMask(w, b.minX, b.maxX)
		}
	}
}

// fillBit locates cell c in the box-relative fill masks: word index and
// bit.
func (r *router) fillBit(c int) (int, uint64) {
	x, y := r.cellXY(c)
	x, y = x-r.box.minX&^63, y-r.box.minY
	return y*r.fillNW + x>>6, 1 << uint(x&63)
}

// fillReaches grows fillReach (seeded by the caller) to its fixpoint:
// every free box cell connected to a seed through free box cells. It
// returns true as soon as the reached set meets fillGoal; on false,
// fillReach holds the whole reachable region. Rows wait on a stack:
// a row widens its seeds to whole free runs (fillRuns), and a row that
// grew pushes each neighbour row it can seed with new free cells.
func (r *router) fillReaches() bool {
	nw := r.fillNW
	free, reach, goal := r.fillFree, r.fillReach, r.fillGoal
	rows := len(free) / nw
	stack := r.fillStack[:0]
	for i := rows - 1; i >= 0; i-- {
		for j := i * nw; j < (i+1)*nw; j++ {
			if reach[j]&goal[j] != 0 {
				return true
			}
			if reach[j] != 0 {
				stack = append(stack, i)
				break
			}
		}
	}
	queued := r.fillQueued[:rows]
	clear(queued)
	for _, i := range stack {
		queued[i] = true
	}
	tmp := r.fillTmp[:nw]
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		queued[i] = false
		row := reach[i*nw : (i+1)*nw]
		for j := range row {
			var nb uint64
			if i > 0 {
				nb = reach[(i-1)*nw+j]
			}
			if i+1 < rows {
				nb |= reach[(i+1)*nw+j]
			}
			row[j] |= nb & free[i*nw+j]
		}
		fillRuns(row, free[i*nw:(i+1)*nw], tmp)
		for j, g := range goal[i*nw : (i+1)*nw] {
			if row[j]&g != 0 {
				r.fillStack = stack
				return true
			}
		}
		for _, k := range [2]int{i - 1, i + 1} {
			if k < 0 || k >= rows || queued[k] {
				continue
			}
			for j := range row {
				if row[j]&free[k*nw+j]&^reach[k*nw+j] != 0 {
					stack = append(stack, k)
					queued[k] = true
					break
				}
			}
		}
	}
	r.fillStack = stack
	return false
}

// fillRuns widens the seed bits of row s (a subset of the free mask f)
// to the whole free runs that contain them, in place. The upward half
// is the add-with-carry run fill of Hacker's Delight: f + s clears
// every f-bit from each run's lowest seed to the run's top, so
// f &^ (f + s) | s covers that span, with the carry rippling across
// words. The downward half is the same fill on the bit-reversed row,
// staged in tmp.
func fillRuns(s, f, tmp []uint64) {
	var carry uint64
	for j := len(s) - 1; j >= 0; j-- {
		rf, rs := bits.Reverse64(f[j]), bits.Reverse64(s[j])
		var sum uint64
		sum, carry = bits.Add64(rf, rs, carry)
		tmp[j] = bits.Reverse64(rf&^sum | rs)
	}
	carry = 0
	for j, s0 := range s {
		var sum uint64
		sum, carry = bits.Add64(f[j], s0, carry)
		s[j] = f[j]&^sum | s0 | tmp[j]
	}
}

// fillFrontier returns the minimum busyUntil over the busy box cells
// next to fillReach: the cells a failing BFS over the same region
// notes, since every busy bit in the box is exact after fillBox. It
// returns 0 when there are none.
func (r *router) fillFrontier() int {
	b := r.box
	nw := r.fillNW
	reach := r.fillReach
	rows := len(reach) / nw
	w0 := b.minX >> 6
	cw := r.lat.CW
	minExp := 0
	for i := 0; i < rows; i++ {
		y := b.minY + i
		var tiles uint64
		if y&1 == 1 {
			tiles = tileBits
		}
		row := reach[i*nw : (i+1)*nw]
		for j, cur := range row {
			nb := cur<<1 | cur>>1
			if j > 0 {
				nb |= row[j-1] >> 63
			}
			if j+1 < nw {
				nb |= row[j+1] << 63
			}
			if i > 0 {
				nb |= reach[(i-1)*nw+j]
			}
			if i+1 < rows {
				nb |= reach[(i+1)*nw+j]
			}
			w := w0 + j
			for m := nb & r.rowBusy[y*r.rowWords+w] &^ tiles & spanMask(w, b.minX, b.maxX); m != 0; m &= m - 1 {
				if v := r.busyUntil[y*cw+(w<<6|bits.TrailingZeros64(m))]; minExp == 0 || v < minExp {
					minExp = v
				}
			}
		}
	}
	return minExp
}
