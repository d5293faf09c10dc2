package mesh

import (
	"fmt"
	"strings"

	"magicstate/internal/layout"
)

// CongestionMap accumulates, per lattice cell, the total cycles braids
// held that cell during a recorded run (Config.RecordPaths must have been
// set). The result indexes cells as the lattice does; use the returned
// lattice for coordinates. Hold windows (HoldEnd) are used when present,
// so teleportation-style short claims weigh their true occupancy.
func CongestionMap(res *Result, p *layout.Placement) ([]int, *Lattice, error) {
	if res.Paths == nil {
		return nil, nil, fmt.Errorf("mesh: run did not record paths")
	}
	lat := NewLattice(p.W, p.H)
	heat := make([]int, lat.Cells())
	for gi, path := range res.Paths {
		if len(path) == 0 || res.Start[gi] < 0 {
			continue
		}
		end := res.End[gi]
		if res.HoldEnd != nil && res.HoldEnd[gi] > 0 {
			end = res.HoldEnd[gi]
		}
		held := end - res.Start[gi]
		for _, ci := range path {
			if ci >= 0 && ci < len(heat) {
				heat[ci] += held
			}
		}
	}
	return heat, lat, nil
}

// RenderCongestion draws the congestion map as ASCII art over the
// lattice: tiles render as '#', idle channels as '.', and busy channels
// as a log-ish heat scale '1'-'9'. Rows are emitted top to bottom,
// clipped to maxW x maxH cells.
func RenderCongestion(heat []int, lat *Lattice, maxW, maxH int) string {
	if maxW <= 0 {
		maxW = 160
	}
	if maxH <= 0 {
		maxH = 80
	}
	max := 0
	for _, h := range heat {
		if h > max {
			max = h
		}
	}
	w, h := lat.CW, lat.CH
	clipped := false
	if w > maxW {
		w, clipped = maxW, true
	}
	if h > maxH {
		h, clipped = maxH, true
	}
	var b strings.Builder
	for cy := 0; cy < h; cy++ {
		for cx := 0; cx < w; cx++ {
			ci := lat.CellIndex(cx, cy)
			switch {
			case lat.IsTile(ci):
				b.WriteByte('#')
			case heat[ci] == 0:
				b.WriteByte('.')
			default:
				// Linear 1..9 bucket over the observed maximum.
				bucket := 1 + heat[ci]*9/(max+1)
				if bucket > 9 {
					bucket = 9
				}
				b.WriteByte(byte('0' + bucket))
			}
		}
		b.WriteByte('\n')
	}
	if clipped {
		fmt.Fprintf(&b, "(clipped to %dx%d of %dx%d)\n", w, h, lat.CW, lat.CH)
	}
	return b.String()
}
