package layout

import (
	"fmt"
	"strings"
)

// Render draws a placement as ASCII art, one character per tile: '.' for
// an empty slot and the label character labelOf returns for occupied
// tiles. Pass nil to label every qubit '#'. Rows are emitted top to
// bottom. Intended for debugging and documentation; large placements are
// clipped to maxW x maxH with an ellipsis note.
func (p *Placement) Render(labelOf func(q int) byte, maxW, maxH int) string {
	if maxW <= 0 {
		maxW = 120
	}
	if maxH <= 0 {
		maxH = 60
	}
	if labelOf == nil {
		labelOf = func(int) byte { return '#' }
	}
	occ := p.Occupied()
	w, h := p.W, p.H
	clipped := false
	if w > maxW {
		w, clipped = maxW, true
	}
	if h > maxH {
		h, clipped = maxH, true
	}
	var b strings.Builder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if q, ok := occ[Point{X: x, Y: y}]; ok {
				b.WriteByte(labelOf(q))
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	if clipped {
		fmt.Fprintf(&b, "(clipped to %dx%d of %dx%d)\n", w, h, p.W, p.H)
	}
	return b.String()
}
