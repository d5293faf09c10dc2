package mesh

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"magicstate/internal/bravyi"
	"magicstate/internal/circuit"
	"magicstate/internal/layout"
	"magicstate/internal/resource"
)

func TestLatticeGeometry(t *testing.T) {
	l := NewLattice(3, 2)
	if l.CW != 7 || l.CH != 5 {
		t.Fatalf("cell grid = %dx%d, want 7x5", l.CW, l.CH)
	}
	tiles := 0
	for ci := 0; ci < l.Cells(); ci++ {
		if l.IsTile(ci) {
			tiles++
		}
	}
	if tiles != 6 {
		t.Errorf("tiles = %d, want 6", tiles)
	}
	ci := l.TileCell(layout.Point{X: 0, Y: 0})
	if !l.IsTile(ci) {
		t.Error("tile cell not marked as tile")
	}
	ports := l.PortsOf(layout.Point{X: 0, Y: 0})
	if len(ports) != 4 {
		t.Errorf("interior-corner tile should expose 4 ports, got %d", len(ports))
	}
	for _, pc := range ports {
		if l.IsTile(pc) {
			t.Error("port cell is a tile")
		}
	}
}

func TestNeighborCellsAtCorner(t *testing.T) {
	l := NewLattice(2, 2)
	nb := l.NeighborCells(l.CellIndex(0, 0), nil)
	if len(nb) != 2 {
		t.Errorf("corner cell neighbors = %d, want 2", len(nb))
	}
	nb = l.NeighborCells(l.CellIndex(2, 2), nil)
	if len(nb) != 4 {
		t.Errorf("interior cell neighbors = %d, want 4", len(nb))
	}
}

func TestRouterFindsAndBlocksPaths(t *testing.T) {
	l := NewLattice(3, 1)
	r := new(router)
	r.use(l)
	src := l.PortsOf(layout.Point{X: 0, Y: 0})
	dst := l.PortsOf(layout.Point{X: 2, Y: 0})
	path, _ := r.route(src, dst, 0)
	if path == nil {
		t.Fatal("route on empty lattice failed")
	}
	for _, c := range path {
		if l.IsTile(c) {
			t.Fatal("path crosses a tile")
		}
	}
	// Reserve the whole lattice's channels and verify blocking.
	all := make([]int, 0, l.Cells())
	for ci := 0; ci < l.Cells(); ci++ {
		if !l.IsTile(ci) {
			all = append(all, ci)
		}
	}
	r.reserve(all, 100)
	blockedPath, clearAt := r.route(src, dst, 50)
	if blockedPath != nil {
		t.Error("route should fail while cells are reserved")
	}
	if clearAt != 100 {
		t.Errorf("blocked route retry bound = %d, want 100 (the reservation expiry)", clearAt)
	}
	if p, _ := r.route(src, dst, 100); p == nil {
		t.Error("route should succeed after reservations expire")
	}
}

// TestRouterResetClearsPurgeStamps pins reset's clear of cleanAt. A
// flood fill at time t stamps every row word of its box clean at t, so a
// stamp left over from an earlier run would make the next run's fill at
// the same t skip purging bits whose reservations have expired since,
// and read free cells as busy.
func TestRouterResetClearsPurgeStamps(t *testing.T) {
	const at = 10
	l := NewLattice(3, 1)
	r := new(router)
	r.use(l)
	src := l.PortsOf(layout.Point{X: 0, Y: 0})
	dst := l.PortsOf(layout.Point{X: 2, Y: 0})
	if p, _ := r.route(src, dst, at); p == nil {
		t.Fatal("route on empty lattice failed")
	}
	r.reset()
	// Every channel cell is busy from the reset until 5, and free at the
	// flood's time: the route must find them free.
	var channels []int
	for ci := 0; ci < l.Cells(); ci++ {
		if !l.IsTile(ci) {
			channels = append(channels, ci)
		}
	}
	r.reserve(channels, 5)
	if p, bound := r.route(src, dst, at); p == nil {
		t.Fatalf("route at %d after reset failed (retry bound %d); its reservations expired at 5", at, bound)
	}
}

func TestRouteTreeSpansAllGroups(t *testing.T) {
	l := NewLattice(4, 4)
	r := new(router)
	r.use(l)
	groups := [][]int{
		l.PortsOf(layout.Point{X: 0, Y: 0}),
		l.PortsOf(layout.Point{X: 3, Y: 0}),
		l.PortsOf(layout.Point{X: 0, Y: 3}),
		l.PortsOf(layout.Point{X: 3, Y: 3}),
	}
	tree := r.routeTree(groups, 0)
	if tree == nil {
		t.Fatal("tree routing failed on empty lattice")
	}
	// The tree must touch at least one port of every group.
	inTree := map[int]bool{}
	for _, c := range tree {
		inTree[c] = true
	}
	for gi, g := range groups {
		hit := false
		for _, c := range g {
			if inTree[c] {
				hit = true
			}
		}
		if !hit {
			t.Errorf("group %d untouched by tree", gi)
		}
	}
}

func simpleCfg() Config { return Config{} }

func linePlacement(n int) *layout.Placement {
	p := layout.NewPlacement(n, n, 1)
	for i := 0; i < n; i++ {
		p.Set(i, layout.Point{X: i, Y: 0})
	}
	return p
}

func TestSimulateSerialChain(t *testing.T) {
	cm := resource.DefaultCost()
	c := circuit.New(2)
	c.H(0)
	c.CNOT(0, 1)
	c.MeasX(1)
	res, err := Simulate(c, linePlacement(2), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := cm.H + cm.CNOT + cm.Meas
	if res.Latency != want {
		t.Errorf("latency = %d, want %d", res.Latency, want)
	}
	if res.Stalls != 0 {
		t.Errorf("stalls = %d, want 0", res.Stalls)
	}
}

func TestSimulateParallelGates(t *testing.T) {
	cm := resource.DefaultCost()
	// Two independent CNOTs with ample room route concurrently.
	c := circuit.New(4)
	c.CNOT(0, 1)
	c.CNOT(2, 3)
	p := layout.NewPlacement(4, 4, 2)
	p.Set(0, layout.Point{X: 0, Y: 0})
	p.Set(1, layout.Point{X: 1, Y: 0})
	p.Set(2, layout.Point{X: 0, Y: 1})
	p.Set(3, layout.Point{X: 1, Y: 1})
	res, err := Simulate(c, p, simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != cm.CNOT {
		t.Errorf("parallel latency = %d, want %d", res.Latency, cm.CNOT)
	}
	if res.Start[0] != 0 || res.Start[1] != 0 {
		t.Errorf("both gates should start at 0: %v", res.Start)
	}
}

func TestSimulateCrossingBraidsStall(t *testing.T) {
	cm := resource.DefaultCost()
	// Qubits arranged so the two braids must cross:
	//   a . b
	//   c . d
	// CNOT(a,d) and CNOT(c,b) — on a tight lattice one must wait.
	c := circuit.New(4)
	c.CNOT(0, 3)
	c.CNOT(2, 1)
	p := layout.NewPlacement(4, 2, 2)
	p.Set(0, layout.Point{X: 0, Y: 0})
	p.Set(1, layout.Point{X: 1, Y: 0})
	p.Set(2, layout.Point{X: 0, Y: 1})
	p.Set(3, layout.Point{X: 1, Y: 1})
	res, err := Simulate(c, p, simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	// With only a 5x5 cell lattice there is still a detour around the
	// outside, so either both run in parallel (latency CNOT) or the
	// second stalls (latency 2*CNOT). It must never exceed serial.
	if res.Latency > 2*cm.CNOT {
		t.Errorf("latency = %d, want <= %d", res.Latency, 2*cm.CNOT)
	}
	if res.Latency < cm.CNOT {
		t.Errorf("latency = %d below single braid duration", res.Latency)
	}
}

func TestSimulateForcedSerialization(t *testing.T) {
	cm := resource.DefaultCost()
	// A 1xN line of tiles leaves two channel rows plus the single-cell
	// gaps between adjacent tiles; four nested braids exceed that
	// capacity, so at least one must serialize.
	c := circuit.New(8)
	c.CNOT(0, 7)
	c.CNOT(1, 6)
	c.CNOT(2, 5)
	c.CNOT(3, 4)
	res, err := Simulate(c, linePlacement(8), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= cm.CNOT {
		t.Errorf("four nested braids on a line cannot all run concurrently (latency %d)", res.Latency)
	}
	if res.Stalls == 0 {
		t.Error("expected at least one stall")
	}
}

func TestSimulateBarrierFence(t *testing.T) {
	cm := resource.DefaultCost()
	c := circuit.New(2)
	c.H(0)
	c.Barrier([]circuit.Qubit{0, 1})
	c.H(1)
	res, err := Simulate(c, linePlacement(2), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 2*cm.H {
		t.Errorf("latency = %d, want %d (H before fence, H after)", res.Latency, 2*cm.H)
	}
	if res.Start[2] != cm.H {
		t.Errorf("post-barrier gate starts at %d, want %d", res.Start[2], cm.H)
	}
}

func TestSimulateCXX(t *testing.T) {
	c := circuit.New(4)
	c.CXX(0, []circuit.Qubit{1, 2, 3})
	res, err := Simulate(c, linePlacement(4), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != resource.DefaultCost().CXX {
		t.Errorf("cxx latency = %d", res.Latency)
	}
}

func TestSimulateMove(t *testing.T) {
	c := circuit.New(2)
	c.Move(0, 1)
	res, err := Simulate(c, linePlacement(2), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != resource.DefaultCost().Move {
		t.Errorf("move latency = %d", res.Latency)
	}
}

func TestSimulateRejectsBadPlacement(t *testing.T) {
	c := circuit.New(2)
	c.CNOT(0, 1)
	if _, err := Simulate(c, linePlacement(1), simpleCfg()); err == nil {
		t.Error("mismatched placement size must fail")
	}
	p := layout.NewPlacement(2, 2, 1)
	p.Set(0, layout.Point{X: 0, Y: 0})
	p.Set(1, layout.Point{X: 0, Y: 0})
	if _, err := Simulate(c, p, simpleCfg()); err == nil {
		t.Error("duplicate tiles must fail")
	}
}

func TestSimulateFactoryLatencyAboveCriticalPath(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	cm := resource.DefaultCost()
	p := layout.Linear(f)
	res, err := Simulate(f.Circuit, p, simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	crit := cm.CriticalPath(f.Circuit)
	if res.Latency < crit {
		t.Errorf("simulated latency %d below critical path %d", res.Latency, crit)
	}
	if res.Latency > 5*crit {
		t.Errorf("linear mapping latency %d implausibly above critical path %d", res.Latency, crit)
	}
	if res.Area != 33 {
		t.Errorf("area = %d, want 33 (5k+13 at k=4)", res.Area)
	}
}

func TestSimulateRandomWorseThanLinear(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 8, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Simulate(f.Circuit, layout.Linear(f), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rnd, err := Simulate(f.Circuit, layout.Random(f.Circuit.NumQubits, rng), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Latency <= lin.Latency {
		t.Errorf("random placement (%d) should be slower than linear (%d)",
			rnd.Latency, lin.Latency)
	}
}

func TestSimulateAllGatesScheduled(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 2, Levels: 2, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(f.Circuit, layout.Linear(f), simpleCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Start {
		if s < 0 || res.End[i] < s {
			t.Fatalf("gate %d unscheduled or negative-length: [%d,%d)", i, s, res.End[i])
		}
	}
	// Dependency order is respected.
	d := circuit.Deps(f.Circuit)
	for i := range f.Circuit.Gates {
		for _, s := range d.Succ[i] {
			if res.Start[s] < res.End[i] {
				t.Fatalf("gate %d starts at %d before dep %d ends at %d",
					s, res.Start[s], i, res.End[i])
			}
		}
	}
}

func TestNoOverlapInvariantOnFactory(t *testing.T) {
	// Property: across a whole congested factory run, no two braids with
	// overlapping execution windows ever share a channel cell.
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 2, Barriers: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := simpleCfg()
	cfg.RecordPaths = true
	res, err := Simulate(f.Circuit, layout.Linear(f), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls == 0 {
		t.Fatal("want a congested run for this test to be meaningful")
	}
	if err := res.CheckNoOverlaps(); err != nil {
		t.Fatal(err)
	}
}

func TestNoOverlapInvariantRandomPlacements(t *testing.T) {
	f, err := bravyi.Build(bravyi.Params{K: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := layout.Random(f.Circuit.NumQubits, rng)
		cfg := simpleCfg()
		cfg.RecordPaths = true
		res, err := Simulate(f.Circuit, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckNoOverlaps(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCheckNoOverlapsRequiresRecording(t *testing.T) {
	r := &Result{}
	if err := r.CheckNoOverlaps(); err == nil {
		t.Error("unrecorded run should refuse the check")
	}
}

func TestCheckNoOverlapsDetectsViolation(t *testing.T) {
	r := &Result{
		Start: []int{0, 5},
		End:   []int{10, 15},
		Paths: [][]int{{7, 8}, {8, 9}}, // share cell 8 while overlapping in time
	}
	if err := r.CheckNoOverlaps(); err == nil {
		t.Error("overlapping claims must be detected")
	}
	// Disjoint windows on the same cell are fine.
	r2 := &Result{
		Start: []int{0, 10},
		End:   []int{10, 20},
		Paths: [][]int{{8}, {8}},
	}
	if err := r2.CheckNoOverlaps(); err != nil {
		t.Errorf("sequential reuse flagged: %v", err)
	}
}

// Property: both rectilinear candidates connect valid ports of the two
// tiles through channel cells only, for arbitrary tile pairs.
func TestXYPathsAreValidChannels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 2+rng.Intn(10), 2+rng.Intn(10)
		l := NewLattice(w, h)
		a := layout.Point{X: rng.Intn(w), Y: rng.Intn(h)}
		b := layout.Point{X: rng.Intn(w), Y: rng.Intn(h)}
		if a == b {
			return true
		}
		if !reflect.DeepEqual(l.xyPathInto(nil, a, b), walkPath(l.walkXY, a, b)) ||
			!reflect.DeepEqual(l.yxPathInto(nil, a, b), walkPath(l.walkYX, a, b)) {
			return false // the materialized path must be the walked cell sequence
		}
		for _, path := range [][]int{l.xyPathInto(nil, a, b), l.yxPathInto(nil, a, b)} {
			if len(path) == 0 {
				return false
			}
			for _, ci := range path {
				if l.IsTile(ci) {
					return false
				}
			}
			// Endpoints must touch the tiles.
			if !adjacentToTile(l, path[0], a) && !adjacentToTile(l, path[0], b) {
				return false
			}
			if !adjacentToTile(l, path[len(path)-1], b) && !adjacentToTile(l, path[len(path)-1], a) {
				return false
			}
			// Consecutive cells must be lattice neighbors.
			for i := 1; i < len(path); i++ {
				if !cellsAdjacent(l, path[i-1], path[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func adjacentToTile(l *Lattice, ci int, tile layout.Point) bool {
	for _, p := range l.PortsOf(tile) {
		if p == ci {
			return true
		}
	}
	return false
}

func cellsAdjacent(l *Lattice, a, b int) bool {
	ax, ay := a%l.CW, a/l.CW
	bx, by := b%l.CW, b/l.CW
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx+dy == 1
}
