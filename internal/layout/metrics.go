package layout

import (
	"math"

	"magicstate/internal/graph"
)

// Metrics aggregates the three congestion heuristics of §VI.A for one
// placement of an interaction graph.
type Metrics struct {
	// Crossings counts pairs of interaction edges whose straight segments
	// intersect away from a shared endpoint (including collinear
	// overlaps), the paper's edge-crossing metric.
	Crossings int
	// AvgManhattan is the mean Manhattan length of interaction edges.
	AvgManhattan float64
	// AvgSpacing is the mean pairwise Euclidean distance between edge
	// midpoints; larger spacing means braids are more spread out.
	AvgSpacing float64
}

// Measure computes all three metrics. It is O(m^2) in the edge count and
// intended for analysis/reporting; optimizers use the incremental helpers.
func Measure(g *graph.Graph, p *Placement) Metrics {
	m := Metrics{}
	if len(g.Edges) == 0 {
		return m
	}
	segs := Segments(g, p)
	var lenSum float64
	for _, s := range segs {
		lenSum += float64(Manhattan(s.A, s.B))
	}
	m.AvgManhattan = lenSum / float64(len(segs))

	var spacingSum float64
	pairs := 0
	for i := 0; i < len(segs); i++ {
		for j := i + 1; j < len(segs); j++ {
			if SegmentsConflict(segs[i], segs[j]) {
				m.Crossings++
			}
			spacingSum += midpointDist(segs[i], segs[j])
			pairs++
		}
	}
	if pairs > 0 {
		m.AvgSpacing = spacingSum / float64(pairs)
	}
	return m
}

// Segment is an interaction edge realized as a straight segment between
// two placed endpoints.
type Segment struct {
	A, B Point
}

// Segments realizes every graph edge as a segment under p, skipping edges
// with unplaced endpoints.
func Segments(g *graph.Graph, p *Placement) []Segment {
	segs := make([]Segment, 0, len(g.Edges))
	for _, e := range g.Edges {
		a, b := p.At(e.U), p.At(e.V)
		if a == Unplaced || b == Unplaced {
			continue
		}
		segs = append(segs, Segment{a, b})
	}
	return segs
}

func midpointDist(s1, s2 Segment) float64 {
	mx1 := float64(s1.A.X+s1.B.X) / 2
	my1 := float64(s1.A.Y+s1.B.Y) / 2
	mx2 := float64(s2.A.X+s2.B.X) / 2
	my2 := float64(s2.A.Y+s2.B.Y) / 2
	dx, dy := mx1-mx2, my1-my2
	return math.Sqrt(dx*dx + dy*dy)
}

func orient(a, b, c Point) int {
	v := (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func onSegment(a, b, c Point) bool {
	return min(a.X, b.X) <= c.X && c.X <= max(a.X, b.X) &&
		min(a.Y, b.Y) <= c.Y && c.Y <= max(a.Y, b.Y)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SegmentsConflict reports whether two segments intersect somewhere other
// than at a single shared endpoint. Proper crossings conflict; collinear
// overlapping segments conflict; segments that merely touch at a common
// endpoint do not (braids may share a qubit's neighborhood sequentially
// without crossing).
func SegmentsConflict(s1, s2 Segment) bool {
	// Disjoint bounding boxes cannot intersect, overlap, or share an
	// endpoint (any such point would lie in both boxes). This rejects the
	// typical far-apart pair with integer compares before any
	// cross-product math.
	if max(s1.A.X, s1.B.X) < min(s2.A.X, s2.B.X) ||
		max(s2.A.X, s2.B.X) < min(s1.A.X, s1.B.X) ||
		max(s1.A.Y, s1.B.Y) < min(s2.A.Y, s2.B.Y) ||
		max(s2.A.Y, s2.B.Y) < min(s1.A.Y, s1.B.Y) {
		return false
	}
	return SegmentsConflictTight(s1, s2)
}

// SegmentsConflictTight is SegmentsConflict without the bounding-box
// fast-reject: identical answers on any input, meant for callers that
// have already rejected disjoint boxes themselves (the hop annealer and
// the force-directed local cost cache segment boxes and test them
// inline before each call).
func SegmentsConflictTight(s1, s2 Segment) bool {
	o1 := orient(s1.A, s1.B, s2.A)
	o2 := orient(s1.A, s1.B, s2.B)
	if o1 == o2 && o1 != 0 {
		// s2 lies strictly on one side of s1's line, so it meets no point
		// of s1: neither a crossing nor a collinear touch is possible. A
		// shared endpoint would lie on that line, so none is skipped.
		return false
	}
	shared := 0
	if s1.A == s2.A || s1.A == s2.B {
		shared++
	}
	if s1.B == s2.A || s1.B == s2.B {
		shared++
	}
	if shared > 0 {
		// Sharing one endpoint conflicts only when collinear and
		// overlapping beyond that point. Both of a proper s1's ends
		// matching means identical segments, which conflict; a point s1
		// matches twice but only touches s2 at that end.
		if shared >= 2 {
			return s1.A != s1.B
		}
		if o1 == 0 && o2 == 0 {
			return collinearOverlapBeyondPoint(s1, s2)
		}
		return false
	}
	o3 := orient(s2.A, s2.B, s1.A)
	o4 := orient(s2.A, s2.B, s1.B)
	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear touching cases.
	if o1 == 0 && onSegment(s1.A, s1.B, s2.A) {
		return true
	}
	if o2 == 0 && onSegment(s1.A, s1.B, s2.B) {
		return true
	}
	if o3 == 0 && onSegment(s2.A, s2.B, s1.A) {
		return true
	}
	if o4 == 0 && onSegment(s2.A, s2.B, s1.B) {
		return true
	}
	return false
}

// collinearOverlapBeyondPoint reports whether two collinear segments that
// share an endpoint overlap in more than that single point.
func collinearOverlapBeyondPoint(s1, s2 Segment) bool {
	pts := []Point{s2.A, s2.B}
	for _, p := range pts {
		if p != s1.A && p != s1.B && onSegment(s1.A, s1.B, p) {
			return true
		}
	}
	pts = []Point{s1.A, s1.B}
	for _, p := range pts {
		if p != s2.A && p != s2.B && onSegment(s2.A, s2.B, p) {
			return true
		}
	}
	return false
}

// TotalManhattan returns the summed Manhattan length of all edges of g
// under p; a cheap O(m) objective for refinement loops.
//
//deadcheck:keep placement-quality yardstick in force's and partition's tests
func TotalManhattan(g *graph.Graph, p *Placement) int {
	total := 0
	for _, e := range g.Edges {
		a, b := p.At(e.U), p.At(e.V)
		if a == Unplaced || b == Unplaced {
			continue
		}
		total += Manhattan(a, b)
	}
	return total
}
