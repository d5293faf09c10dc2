// Package layout defines qubit placements on the 2-D logical tile grid and
// the congestion metrics of §VI.A (edge crossings, average Manhattan edge
// length, average edge spacing), plus the two baseline mappings the paper
// compares against: the hand-optimized linear mapping of Fowler et al. [19]
// and uniform random placement (Table I "Random").
package layout

import "fmt"

// Point is a tile coordinate on the logical qubit grid.
type Point struct{ X, Y int }

// Manhattan returns the L1 distance between two points.
func Manhattan(a, b Point) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Unplaced marks a qubit without a position.
var Unplaced = Point{-1, -1}

// Placement maps logical qubits to distinct tiles of a W x H grid.
type Placement struct {
	W, H int
	Pos  []Point
}

// NewPlacement returns a placement of n unplaced qubits on a W x H grid.
func NewPlacement(n, w, h int) *Placement {
	p := &Placement{W: w, H: h, Pos: make([]Point, n)}
	for i := range p.Pos {
		p.Pos[i] = Unplaced
	}
	return p
}

// At returns the position of qubit q.
func (p *Placement) At(q int) Point { return p.Pos[q] }

// Set positions qubit q at pt.
func (p *Placement) Set(q int, pt Point) { p.Pos[q] = pt }

// Clone returns a deep copy.
func (p *Placement) Clone() *Placement {
	return &Placement{W: p.W, H: p.H, Pos: append([]Point(nil), p.Pos...)}
}

// Validate checks that every qubit is placed, in bounds, and that no two
// qubits share a tile.
func (p *Placement) Validate() error {
	seen := make(map[Point]int, len(p.Pos))
	for q, pt := range p.Pos {
		if pt == Unplaced {
			return fmt.Errorf("layout: qubit %d unplaced", q)
		}
		if pt.X < 0 || pt.X >= p.W || pt.Y < 0 || pt.Y >= p.H {
			return fmt.Errorf("layout: qubit %d at %v outside %dx%d grid", q, pt, p.W, p.H)
		}
		if prev, dup := seen[pt]; dup {
			return fmt.Errorf("layout: qubits %d and %d share tile %v", prev, q, pt)
		}
		seen[pt] = q
	}
	return nil
}

// Occupied returns the set of used tiles.
func (p *Placement) Occupied() map[Point]int {
	occ := make(map[Point]int, len(p.Pos))
	for q, pt := range p.Pos {
		if pt != Unplaced {
			occ[pt] = q
		}
	}
	return occ
}

// UsedBounds returns the bounding box (width, height) of occupied tiles;
// (0, 0) when nothing is placed.
func (p *Placement) UsedBounds() (w, h int) {
	minX, minY, maxX, maxY := 1<<30, 1<<30, -1, -1
	for _, pt := range p.Pos {
		if pt == Unplaced {
			continue
		}
		if pt.X < minX {
			minX = pt.X
		}
		if pt.Y < minY {
			minY = pt.Y
		}
		if pt.X > maxX {
			maxX = pt.X
		}
		if pt.Y > maxY {
			maxY = pt.Y
		}
	}
	if maxX < 0 {
		return 0, 0
	}
	return maxX - minX + 1, maxY - minY + 1
}

// Area returns the number of occupied tiles: the paper's "Area (qubits)"
// axis counts the logical qubits a factory design consumes (its per-
// strategy differences come from qubit reuse and auxiliary slots, not
// from placement hulls — see Fig. 10b, where all three mappings' area
// curves coincide).
func (p *Placement) Area() int {
	n := 0
	for _, pt := range p.Pos {
		if pt != Unplaced {
			n++
		}
	}
	return n
}

// HullArea returns the bounding-box tile area of the occupied region, a
// sprawl diagnostic.
func (p *Placement) HullArea() int {
	w, h := p.UsedBounds()
	return w * h
}

// Normalize translates all positions so the bounding box starts at the
// origin and shrinks W, H to the bounding box.
func (p *Placement) Normalize() {
	minX, minY := 1<<30, 1<<30
	for _, pt := range p.Pos {
		if pt == Unplaced {
			continue
		}
		if pt.X < minX {
			minX = pt.X
		}
		if pt.Y < minY {
			minY = pt.Y
		}
	}
	if minX == 1<<30 {
		return
	}
	maxX, maxY := 0, 0
	for q, pt := range p.Pos {
		if pt == Unplaced {
			continue
		}
		np := Point{pt.X - minX, pt.Y - minY}
		p.Pos[q] = np
		if np.X > maxX {
			maxX = np.X
		}
		if np.Y > maxY {
			maxY = np.Y
		}
	}
	p.W, p.H = maxX+1, maxY+1
}

// Swap exchanges the tiles of qubits a and b.
func (p *Placement) Swap(a, b int) {
	p.Pos[a], p.Pos[b] = p.Pos[b], p.Pos[a]
}

// CenterOfMass returns the mean position of a set of qubits.
func (p *Placement) CenterOfMass(qs []int) (float64, float64) {
	if len(qs) == 0 {
		return 0, 0
	}
	var sx, sy float64
	for _, q := range qs {
		sx += float64(p.Pos[q].X)
		sy += float64(p.Pos[q].Y)
	}
	n := float64(len(qs))
	return sx / n, sy / n
}

// GridFor returns grid dimensions (w, h) with w*h >= n, w >= h, as close
// to the given aspect ratio (w/h) as possible.
func GridFor(n int, aspect float64) (w, h int) {
	if n <= 0 {
		return 0, 0
	}
	if aspect <= 0 {
		aspect = 1
	}
	h = 1
	for h*h < int(float64(n)/aspect) {
		h++
	}
	for h > 1 && (h-1)*ceilDiv(n, h-1) >= n {
		probe := h - 1
		if float64(ceilDiv(n, probe))/float64(probe) > aspect*2 {
			break
		}
		h = probe
	}
	w = ceilDiv(n, h)
	if w < h {
		w, h = h, w
	}
	return w, h
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// RowMajorTiles returns the first n tiles of a w-wide grid in row-major
// order.
func RowMajorTiles(n, w int) []Point {
	tiles := make([]Point, n)
	for i := range tiles {
		tiles[i] = Point{i % w, i / w}
	}
	return tiles
}
