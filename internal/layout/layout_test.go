package layout

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"magicstate/internal/bravyi"
	"magicstate/internal/graph"
)

func TestManhattan(t *testing.T) {
	if Manhattan(Point{0, 0}, Point{3, 4}) != 7 {
		t.Error("manhattan broken")
	}
	if Manhattan(Point{2, 2}, Point{2, 2}) != 0 {
		t.Error("zero distance broken")
	}
}

func TestPlacementValidate(t *testing.T) {
	p := NewPlacement(2, 2, 2)
	if err := p.Validate(); err == nil {
		t.Error("unplaced qubits should fail validation")
	}
	p.Set(0, Point{0, 0})
	p.Set(1, Point{0, 0})
	if err := p.Validate(); err == nil {
		t.Error("duplicate tiles should fail validation")
	}
	p.Set(1, Point{5, 0})
	if err := p.Validate(); err == nil {
		t.Error("out-of-bounds should fail validation")
	}
	p.Set(1, Point{1, 1})
	if err := p.Validate(); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}

func TestAreaAndBounds(t *testing.T) {
	p := NewPlacement(2, 10, 10)
	p.Set(0, Point{2, 3})
	p.Set(1, Point{5, 3})
	w, h := p.UsedBounds()
	if w != 4 || h != 1 {
		t.Errorf("bounds = %dx%d, want 4x1", w, h)
	}
	if p.Area() != 2 {
		t.Errorf("area = %d occupied tiles, want 2", p.Area())
	}
	if p.HullArea() != 4 {
		t.Errorf("hull = %d, want 4", p.HullArea())
	}
}

func TestNormalize(t *testing.T) {
	p := NewPlacement(2, 10, 10)
	p.Set(0, Point{4, 7})
	p.Set(1, Point{6, 9})
	p.Normalize()
	if p.At(0) != (Point{0, 0}) || p.At(1) != (Point{2, 2}) {
		t.Errorf("normalize wrong: %v %v", p.At(0), p.At(1))
	}
	if p.W != 3 || p.H != 3 {
		t.Errorf("normalized grid %dx%d, want 3x3", p.W, p.H)
	}
}

func TestOccupied(t *testing.T) {
	p := NewPlacement(1, 2, 2)
	p.Set(0, Point{1, 1})
	occ := p.Occupied()
	if occ[Point{1, 1}] != 0 || len(occ) != 1 {
		t.Errorf("occupied = %v", occ)
	}
}

func TestGridFor(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 53, 100, 1000} {
		w, h := GridFor(n, 1)
		if w*h < n {
			t.Errorf("GridFor(%d): %dx%d too small", n, w, h)
		}
		if w < h {
			t.Errorf("GridFor(%d): w < h (%d < %d)", n, w, h)
		}
	}
	if w, h := GridFor(0, 1); w != 0 || h != 0 {
		t.Error("GridFor(0) should be 0x0")
	}
}

func TestSegmentsConflict(t *testing.T) {
	cases := []struct {
		s1, s2 Segment
		want   bool
		name   string
	}{
		{Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{0, 2}, Point{2, 0}}, true, "proper X crossing"},
		{Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{0, 1}, Point{2, 1}}, false, "parallel"},
		{Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{1, 0}, Point{3, 0}}, true, "collinear overlap"},
		{Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{2, 0}, Point{4, 0}}, false, "collinear touch at endpoint"},
		{Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{2, 0}, Point{2, 2}}, false, "shared endpoint L"},
		{Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{0, 0}, Point{2, 0}}, true, "identical"},
		{Segment{Point{0, 0}, Point{4, 0}}, Segment{Point{0, 0}, Point{2, 0}}, true, "shared endpoint collinear overlap"},
		{Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{1, 0}, Point{1, 2}}, true, "T touch mid-segment"},
	}
	for _, c := range cases {
		if got := SegmentsConflict(c.s1, c.s2); got != c.want {
			t.Errorf("%s: conflict = %v, want %v", c.name, got, c.want)
		}
		if got := SegmentsConflict(c.s2, c.s1); got != c.want {
			t.Errorf("%s (swapped): conflict = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMeasureSimpleSquare(t *testing.T) {
	// Two crossing diagonals of a unit square.
	g := graph.New(4)
	g.AddEdge(0, 3, 1) // diagonal
	g.AddEdge(1, 2, 1) // other diagonal
	p := NewPlacement(4, 2, 2)
	p.Set(0, Point{0, 0})
	p.Set(1, Point{1, 0})
	p.Set(2, Point{0, 1})
	p.Set(3, Point{1, 1})
	m := Measure(g, p)
	if m.Crossings != 1 {
		t.Errorf("crossings = %d, want 1", m.Crossings)
	}
	if m.AvgManhattan != 2 {
		t.Errorf("avg manhattan = %v, want 2", m.AvgManhattan)
	}
	if m.AvgSpacing != 0 { // midpoints coincide
		t.Errorf("avg spacing = %v, want 0", m.AvgSpacing)
	}
}

func TestMeasureEmptyGraph(t *testing.T) {
	g := graph.New(3)
	p := NewPlacement(3, 2, 2)
	m := Measure(g, p)
	if m.Crossings != 0 || m.AvgManhattan != 0 || m.AvgSpacing != 0 {
		t.Errorf("empty graph metrics should be zero: %+v", m)
	}
}

func TestTotalManhattanMatchesMeasure(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromCircuit(f.Circuit)
	p := Linear(f)
	m := Measure(g, p)
	want := float64(TotalManhattan(g, p)) / float64(len(g.Edges))
	if m.AvgManhattan != want {
		t.Errorf("AvgManhattan %v != TotalManhattan/m %v", m.AvgManhattan, want)
	}
}

func TestLinearSingleLevel(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := Linear(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w, h := p.UsedBounds()
	if h != 1 {
		t.Errorf("single module should occupy one row, got height %d", h)
	}
	if w != 53 {
		t.Errorf("row width = %d, want 53", w)
	}
	if p.Area() != 53 {
		t.Errorf("area = %d, want 53 (matches 5k+13)", p.Area())
	}
}

func TestLinearTwoLevelNoReuse(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := Linear(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w, h := p.UsedBounds()
	if h != 1 || w != 16*23 { // all 16 modules on one line
		t.Errorf("bounds = %dx%d, want %dx1", w, h, 16*23)
	}
}

func TestLinearTwoLevelReuseShortensRow(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2, Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	p := Linear(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	w, h := p.UsedBounds()
	if h != 1 || w != 14*23 { // round 2 fully reuses round-1 tiles
		t.Errorf("bounds = %dx%d, want %dx1", w, h, 14*23)
	}
}

func TestRandomPlacementValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		p := Random(n, rng)
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRandomOnTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tiles := RowMajorTiles(9, 3)
	p := RandomOnTiles(5, tiles, 3, 3, rng)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCenterOfMass(t *testing.T) {
	p := NewPlacement(2, 4, 4)
	p.Set(0, Point{0, 0})
	p.Set(1, Point{2, 2})
	x, y := p.CenterOfMass([]int{0, 1})
	if x != 1 || y != 1 {
		t.Errorf("center = (%v,%v), want (1,1)", x, y)
	}
}

func TestRender(t *testing.T) {
	p := NewPlacement(2, 3, 2)
	p.Set(0, Point{X: 0, Y: 0})
	p.Set(1, Point{X: 2, Y: 1})
	got := p.Render(nil, 0, 0)
	want := "#..\n..#\n"
	if got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
	byClass := p.Render(func(q int) byte { return '0' + byte(q) }, 0, 0)
	if byClass != "0..\n..1\n" {
		t.Errorf("class render = %q", byClass)
	}
}

func TestRenderClipsLargePlacements(t *testing.T) {
	p := NewPlacement(1, 500, 500)
	p.Set(0, Point{X: 0, Y: 0})
	out := p.Render(nil, 10, 5)
	if !strings.Contains(out, "clipped") {
		t.Error("large render should note clipping")
	}
}
