package mesh

import "magicstate/internal/layout"

// Lattice is the routing-cell grid derived from a tile grid: tile (x, y)
// occupies cell (2x+1, 2y+1); every other cell is a routing channel.
type Lattice struct {
	TileW, TileH int // tile grid dimensions
	CW, CH       int // cell grid dimensions: 2W+1 x 2H+1
	isTile       []bool
	// dead marks cells inside a fabrication-defect region: the cell of
	// each defective tile plus its four adjacent channel cells. Dead
	// cells are never routable and defective tiles expose no ports. nil
	// on a defect-free lattice, so the common case allocates nothing.
	dead []bool
	// ports[y*TileW+x] lists the channel cells adjacent to tile (x, y),
	// all carved from one backing array. The simulator reads these slices
	// on every braid start, so they are precomputed once per lattice and
	// must be treated as read-only. A defective tile has an empty port
	// list, which is what excludes it from braid port assignment.
	ports [][]int
}

// NewLattice builds the lattice for a defect-free W x H tile grid.
func NewLattice(tileW, tileH int) *Lattice {
	return NewLatticeDefective(tileW, tileH, nil)
}

// NewLatticeDefective builds the lattice for a W x H tile grid with the
// given defective tiles. A defective tile kills its own cell and its
// four adjacent channel cells: the router must route around the dead
// region, and neighboring healthy tiles lose the ports they shared with
// it. Defect entries outside the grid are ignored.
func NewLatticeDefective(tileW, tileH int, dm *layout.DefectMap) *Lattice {
	l := &Lattice{TileW: tileW, TileH: tileH, CW: 2*tileW + 1, CH: 2*tileH + 1}
	l.isTile = make([]bool, l.CW*l.CH)
	for y := 0; y < tileH; y++ {
		for x := 0; x < tileW; x++ {
			l.isTile[l.CellIndex(2*x+1, 2*y+1)] = true
		}
	}
	var nbuf [4]int
	if dm.Len() > 0 {
		l.dead = make([]bool, l.CW*l.CH)
		for _, pt := range dm.Tiles() {
			if pt.X >= tileW || pt.Y >= tileH {
				continue
			}
			tc := l.TileCell(pt)
			l.dead[tc] = true
			for _, c := range l.NeighborCells(tc, nbuf[:0]) {
				l.dead[c] = true
			}
		}
	}
	l.ports = make([][]int, tileW*tileH)
	backing := make([]int, 0, 4*tileW*tileH)
	for y := 0; y < tileH; y++ {
		for x := 0; x < tileW; x++ {
			tc := l.CellIndex(2*x+1, 2*y+1)
			if l.dead != nil && l.dead[tc] {
				l.ports[y*tileW+x] = nil
				continue
			}
			start := len(backing)
			for _, c := range l.NeighborCells(tc, nbuf[:0]) {
				if !l.isTile[c] && (l.dead == nil || !l.dead[c]) {
					backing = append(backing, c)
				}
			}
			l.ports[y*tileW+x] = backing[start:len(backing):len(backing)]
		}
	}
	return l
}

// PortsOf returns the cached channel cells adjacent to tile pt (its
// braid entry points). The returned slice is shared and must not be
// modified.
func (l *Lattice) PortsOf(pt layout.Point) []int {
	return l.ports[pt.Y*l.TileW+pt.X]
}

// Cells returns the total cell count.
func (l *Lattice) Cells() int { return l.CW * l.CH }

// CellIndex returns the dense index of cell (cx, cy).
func (l *Lattice) CellIndex(cx, cy int) int { return cy*l.CW + cx }

// TileCell returns the cell index of tile pt.
func (l *Lattice) TileCell(pt layout.Point) int {
	return l.CellIndex(2*pt.X+1, 2*pt.Y+1)
}

// IsTile reports whether cell index ci is a logical qubit tile.
func (l *Lattice) IsTile(ci int) bool { return l.isTile[ci] }

// NeighborCells appends the 4-neighborhood of cell ci to buf and returns
// it. Out-of-grid neighbors are omitted.
func (l *Lattice) NeighborCells(ci int, buf []int) []int {
	cx, cy := ci%l.CW, ci/l.CW
	if cx > 0 {
		buf = append(buf, ci-1)
	}
	if cx < l.CW-1 {
		buf = append(buf, ci+1)
	}
	if cy > 0 {
		buf = append(buf, ci-l.CW)
	}
	if cy < l.CH-1 {
		buf = append(buf, ci+l.CW)
	}
	return buf
}
