package layout

import (
	"math/big"
	"testing"
)

// ratPoint is a point with exact rational coordinates.
type ratPoint struct{ x, y *big.Rat }

func ratOf(p Point) ratPoint {
	return ratPoint{big.NewRat(int64(p.X), 1), big.NewRat(int64(p.Y), 1)}
}

func (p ratPoint) equals(q Point) bool {
	return p.x.Cmp(big.NewRat(int64(q.X), 1)) == 0 && p.y.Cmp(big.NewRat(int64(q.Y), 1)) == 0
}

// along returns a + t*d.
func along(a Point, t *big.Rat, d Point) ratPoint {
	x := new(big.Rat).Mul(t, big.NewRat(int64(d.X), 1))
	y := new(big.Rat).Mul(t, big.NewRat(int64(d.Y), 1))
	r := ratOf(a)
	r.x.Add(r.x, x)
	r.y.Add(r.y, y)
	return r
}

func sub(a, b Point) Point { return Point{a.X - b.X, a.Y - b.Y} }
func cross(a, b Point) int { return a.X*b.Y - a.Y*b.X }
func dot(a, b Point) int   { return a.X*b.X + a.Y*b.Y }

// inUnit reports 0 <= t <= 1.
func inUnit(t *big.Rat) bool { return t.Sign() >= 0 && t.Cmp(big.NewRat(1, 1)) <= 0 }

// intersectRef computes the exact intersection of two closed segments as
// a point set, parametrically over the rationals: the number of common
// points (0, 1, or 2 standing for infinitely many) and, when there is
// exactly one, that point.
func intersectRef(s1, s2 Segment) (int, ratPoint) {
	d1, d2 := sub(s1.B, s1.A), sub(s2.B, s2.A)
	// onSeg reports whether p lies on the closed segment a + t*d.
	onSeg := func(p, a, d Point) bool {
		if d == (Point{}) {
			return p == a
		}
		w := sub(p, a)
		return cross(d, w) == 0 && dot(d, w) >= 0 && dot(d, w) <= dot(d, d)
	}
	switch {
	case d1 == (Point{}):
		if onSeg(s1.A, s2.A, d2) {
			return 1, ratOf(s1.A)
		}
		return 0, ratPoint{}
	case d2 == (Point{}):
		if onSeg(s2.A, s1.A, d1) {
			return 1, ratOf(s2.A)
		}
		return 0, ratPoint{}
	}
	w := sub(s2.A, s1.A)
	if den := cross(d1, d2); den != 0 {
		// s1.A + t*d1 == s2.A + u*d2.
		t := big.NewRat(int64(cross(w, d2)), int64(den))
		u := big.NewRat(int64(cross(w, d1)), int64(den))
		if inUnit(t) && inUnit(u) {
			return 1, along(s1.A, t, d1)
		}
		return 0, ratPoint{}
	}
	if cross(w, d1) != 0 {
		return 0, ratPoint{} // parallel, on different lines
	}
	// Collinear: intersect s2's parameter interval on s1's line with [0, 1].
	n := int64(dot(d1, d1))
	t0 := big.NewRat(int64(dot(w, d1)), n)
	t1 := big.NewRat(int64(dot(sub(s2.B, s1.A), d1)), n)
	if t0.Cmp(t1) > 0 {
		t0, t1 = t1, t0
	}
	lo, hi := t0, t1
	if lo.Sign() < 0 {
		lo = new(big.Rat)
	}
	if one := big.NewRat(1, 1); hi.Cmp(one) > 0 {
		hi = one
	}
	switch lo.Cmp(hi) {
	case 1:
		return 0, ratPoint{}
	case 0:
		return 1, along(s1.A, lo, d1)
	}
	return 2, ratPoint{}
}

// conflictRef is SegmentsConflict's contract decided on the exact
// intersection: segments conflict when they have a common point other
// than a single endpoint of both. A point segment is its own endpoint, so
// it conflicts with a segment only by sitting strictly inside it, in
// either order.
func conflictRef(s1, s2 Segment) bool {
	n, x := intersectRef(s1, s2)
	switch n {
	case 0:
		return false
	case 2:
		return true
	}
	endOf := func(s Segment) bool { return x.equals(s.A) || x.equals(s.B) }
	return !endOf(s1) || !endOf(s2)
}

// TestSegmentsConflictExhaustive checks SegmentsConflict and
// SegmentsConflictTight against the exact reference on every ordered
// pair of segments with endpoints on a 5x5 grid, degenerate segments and
// both orientations of each segment included, and checks that the answer
// does not depend on the order of the pair.
func TestSegmentsConflictExhaustive(t *testing.T) {
	const side = 5
	var segs []Segment
	for a := 0; a < side*side; a++ {
		for b := 0; b < side*side; b++ {
			segs = append(segs, Segment{Point{a % side, a / side}, Point{b % side, b / side}})
		}
	}
	var conflicts int
	for _, s1 := range segs {
		for _, s2 := range segs {
			want := conflictRef(s1, s2)
			if got := SegmentsConflict(s1, s2); got != want {
				t.Fatalf("SegmentsConflict(%v, %v) = %v, exact intersection gives %v", s1, s2, got, want)
			}
			if got := SegmentsConflictTight(s1, s2); got != want {
				t.Fatalf("SegmentsConflictTight(%v, %v) = %v, exact intersection gives %v", s1, s2, got, want)
			}
			if got := SegmentsConflict(s2, s1); got != want {
				t.Fatalf("SegmentsConflict(%v, %v) = %v, but the pair in the other order gives %v", s2, s1, got, want)
			}
			if want {
				conflicts++
			}
		}
	}
	if conflicts == 0 || conflicts == len(segs)*len(segs) {
		t.Fatalf("%d of %d pairs conflict; the grid should give both answers", conflicts, len(segs)*len(segs))
	}
}
