package mesh

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"magicstate/internal/circuit"
	"magicstate/internal/layout"
	"magicstate/internal/workload"
)

// refRouter is the reference simulator's router: reservations live in a
// map from cell to expiry, and every query is a direct walk or BFS with
// map-based visited sets. It makes the same path choices as the real
// router (same neighbour order, same port order, same greedy tree) but
// shares none of its scratch, stamps, bitmaps or retry bounds.
type refRouter struct {
	lat  *Lattice
	busy map[int]int
	box  cellBox
}

func (r *refRouter) blocked(ci, t int) bool {
	return (len(r.lat.dead) > 0 && r.lat.dead[ci]) || r.busy[ci] > t
}

func (r *refRouter) free(ci, t int) bool {
	return !r.lat.isTile[ci] && !r.blocked(ci, t) && r.box.contains(ci%r.lat.CW, ci/r.lat.CW)
}

// bfs expands from every start cell at once (start cells are visited
// whether or not they are free) and returns the path, end first, to
// the first goal cell it reaches.
func (r *refRouter) bfs(starts []int, goal map[int]bool, t int) []int {
	parent := map[int]int{}
	var queue []int
	for _, c := range starts {
		if _, seen := parent[c]; seen {
			continue
		}
		parent[c] = -1
		if goal[c] {
			return []int{c}
		}
		queue = append(queue, c)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range r.lat.NeighborCells(cur, nil) {
			if _, seen := parent[nb]; seen || !r.free(nb, t) {
				continue
			}
			parent[nb] = cur
			if goal[nb] {
				var path []int
				for c := nb; c != -1; c = parent[c] {
					path = append(path, c)
				}
				return path
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

func (r *refRouter) route(src, dst []int, t int) []int {
	goal := map[int]bool{}
	for _, c := range dst {
		if r.free(c, t) {
			goal[c] = true
		}
	}
	if len(goal) == 0 {
		return nil
	}
	var starts []int
	for _, c := range src {
		if r.free(c, t) {
			starts = append(starts, c)
		}
	}
	return r.bfs(starts, goal, t)
}

func (r *refRouter) routeTree(groups [][]int, t int) []int {
	if len(groups) == 1 {
		for _, c := range groups[0] {
			if r.free(c, t) {
				return []int{c}
			}
		}
		return nil
	}
	first := r.route(groups[0], groups[1], t)
	if first == nil {
		return nil
	}
	var tree []int
	in := map[int]bool{}
	add := func(cells []int) {
		for _, c := range cells {
			if !in[c] {
				in[c] = true
				tree = append(tree, c)
			}
		}
	}
	add(first)
	connected := map[int]bool{0: true, 1: true}
	for len(connected) < len(groups) {
		goal := map[int]bool{}
		groupOf := map[int]int{}
		for gi, g := range groups {
			if connected[gi] {
				continue
			}
			for _, c := range g {
				if r.free(c, t) {
					goal[c] = true
					groupOf[c] = gi // a later group overrides a shared port
				}
			}
		}
		if len(goal) == 0 {
			return nil
		}
		path := r.bfs(tree, goal, t)
		if path == nil {
			return nil
		}
		add(path)
		connected[groupOf[path[0]]] = true
	}
	return tree
}

// candidate walks one dimension-ordered candidate; claimed cells (arms
// of the same braid tree) never block. It reports whether the path is
// free and whether its first blocked cell is dead.
func (r *refRouter) candidate(walk func(layout.Point, layout.Point, func(int) bool) bool,
	src, dst layout.Point, t int, claimed map[int]bool) (free, dead bool) {
	free = walk(src, dst, func(ci int) bool {
		if claimed[ci] || !r.blocked(ci, t) {
			return true
		}
		dead = len(r.lat.dead) > 0 && r.lat.dead[ci]
		return false
	})
	return free, dead
}

// routeXY tries XY then YX; when the first blocked cell of both is
// dead it detours with a whole-grid BFS.
func (r *refRouter) routeXY(src, dst layout.Point, t int, claimed map[int]bool) []int {
	ok, dead1 := r.candidate(r.lat.walkXY, src, dst, t, claimed)
	if ok {
		return walkPath(r.lat.walkXY, src, dst)
	}
	ok, dead2 := r.candidate(r.lat.walkYX, src, dst, t, claimed)
	if ok {
		return walkPath(r.lat.walkYX, src, dst)
	}
	if dead1 && dead2 {
		return r.route(r.lat.PortsOf(src), r.lat.PortsOf(dst), t)
	}
	return nil
}

func (r *refRouter) routeXYTree(control layout.Point, targets []layout.Point, t int) []int {
	claimed := map[int]bool{}
	var union []int
	for _, tgt := range targets {
		arm := r.routeXY(control, tgt, t, claimed)
		if arm == nil {
			return nil
		}
		for _, c := range arm {
			if !claimed[c] {
				claimed[c] = true
				union = append(union, c)
			}
		}
	}
	return union
}

// simulateReference is the simulator with the semantics it had before
// the event-driven engine: at every completion event it retries every
// ready gate in program order, reservations live in a map, and no gate
// is ever parked on a retry bound. It reports no Stalls, which the wake
// schedule defines.
func simulateReference(c *circuit.Circuit, p *layout.Placement, cfg Config) (*Result, error) {
	cfg.fill()
	dm, err := layout.ParseDefects(cfg.Defects)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for _, pt := range p.Pos {
		if dm.Has(pt) {
			return nil, fmt.Errorf("qubit on defective tile %v", pt)
		}
	}
	lat := NewLatticeDefective(p.W, p.H, dm)
	rt := &refRouter{lat: lat, busy: map[int]int{}, box: lat.wholeGrid()}
	dag := circuit.Deps(c)
	n := len(c.Gates)
	res := &Result{Start: make([]int, n), End: make([]int, n), Area: p.Area(),
		Paths: make([][]int, n), HoldEnd: make([]int, n)}
	indeg := make([]int, n)
	var avail []int
	for i := range indeg {
		res.Start[i], res.End[i] = -1, -1
		if indeg[i] = dag.InDegree(i); indeg[i] == 0 {
			avail = append(avail, i)
		}
	}
	type completion struct{ t, gate int }
	var comps []completion
	completed, t := 0, 0
	finish := func(gi int) {
		completed++
		for _, s := range dag.Succ[gi] {
			if indeg[s]--; indeg[s] == 0 {
				avail = append(avail, s)
			}
		}
	}
	start := func(gi, dur int) {
		res.Start[gi], res.End[gi] = t, t+dur
		if t+dur > res.Latency {
			res.Latency = t + dur
		}
		comps = append(comps, completion{t + dur, gi})
	}
	setBox := func(groups [][]int) {
		if cfg.Mode == RouteAdaptive {
			rt.box = lat.wholeGrid()
			return
		}
		b := emptyBox()
		for _, g := range groups {
			b = b.extend(lat, g)
		}
		rt.box = b.expand(lat, routeMargin)
	}
	routePair := func(a, b circuit.Qubit) []int {
		if cfg.Mode == RouteXY {
			return rt.routeXY(p.At(int(a)), p.At(int(b)), t, nil)
		}
		src, dst := lat.PortsOf(p.At(int(a))), lat.PortsOf(p.At(int(b)))
		setBox([][]int{src, dst})
		return rt.route(src, dst, t)
	}
	for completed < n {
		if t > cfg.MaxCycles {
			return nil, fmt.Errorf("exceeded %d cycles", cfg.MaxCycles)
		}
		for progress := true; progress; {
			progress = false
			sort.Ints(avail)
			pending := avail
			avail = nil
			var next []int
			for _, gi := range pending {
				g := &c.Gates[gi]
				dur, hold := cfg.styleCycles(g)
				if dur == 0 {
					res.Start[gi], res.End[gi] = t, t
					finish(gi)
					progress = true
					continue
				}
				if !g.Kind.IsTwoQubit() || (g.Kind != circuit.KindCXX && g.Kind != circuit.KindMove && g.Control == circuit.NoQubit) {
					start(gi, dur)
					progress = true
					continue
				}
				var path []int
				switch {
				case g.Kind == circuit.KindCXX && cfg.Mode == RouteXY:
					tgts := make([]layout.Point, len(g.Targets))
					for i, q := range g.Targets {
						tgts[i] = p.At(int(q))
					}
					path = rt.routeXYTree(p.At(int(g.Control)), tgts, t)
				case g.Kind == circuit.KindCXX:
					groups := [][]int{lat.PortsOf(p.At(int(g.Control)))}
					for _, q := range g.Targets {
						groups = append(groups, lat.PortsOf(p.At(int(q))))
					}
					setBox(groups)
					path = rt.routeTree(groups, t)
				case g.Kind == circuit.KindMove:
					path = routePair(g.Control, g.Dest)
				default:
					path = routePair(g.Control, g.Targets[0])
				}
				if path == nil {
					next = append(next, gi)
					continue
				}
				for _, ci := range path {
					rt.busy[ci] = t + hold
				}
				res.Paths[gi] = path
				res.HoldEnd[gi] = t + hold
				start(gi, dur)
				progress = true
			}
			avail = append(next, avail...)
		}
		if completed >= n {
			break
		}
		if len(comps) == 0 {
			return nil, fmt.Errorf("deadlock at cycle %d", t)
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i].t < comps[j].t })
		t = comps[0].t
		for len(comps) > 0 && comps[0].t == t {
			finish(comps[0].gate)
			comps = comps[1:]
		}
	}
	return res, nil
}

// styledCriticalPath is the dependency-bound latency of c under cfg's
// interaction style: each gate starts when all its operands are free.
func styledCriticalPath(c *circuit.Circuit, cfg Config) int {
	cfg.fill()
	ready := make([]int, c.NumQubits)
	longest := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		dur, _ := cfg.styleCycles(g)
		ops := g.Operands()
		at := 0
		for _, q := range ops {
			at = max(at, ready[q])
		}
		for _, q := range ops {
			ready[q] = at + dur
		}
		longest = max(longest, at+dur)
	}
	return longest
}

// oraclePlacement places n qubits for the simulator oracle: "line" is
// the row-major near-square grid frontend workloads get under the
// linear strategy, "random" a seeded uniform placement. Defects are
// sampled in row 0 only and displaced qubits are relocated.
func oraclePlacement(n int, random bool, defectRate float64, rng *rand.Rand) (*layout.Placement, string, error) {
	var p *layout.Placement
	if random {
		p = layout.Random(n, rng)
	} else {
		w, _ := layout.GridFor(n, 1)
		p = layout.NewPlacement(n, w, (n+w-1)/w)
		for q, pt := range layout.RowMajorTiles(n, w) {
			p.Set(q, pt)
		}
	}
	dm := layout.SampleDefects(p.W, 1, defectRate, rng)
	if err := layout.AvoidDefects(p, dm); err != nil {
		return nil, "", err
	}
	return p, dm.String(), nil
}

// simulateOracleCase compares the engine with simulateReference on one
// random circuit under every placement, route mode and interaction
// style.
func simulateOracleCase(t *testing.T, seed int64, qubits, layers int, cx, tDensity, defectRate float64) {
	spec := workload.Spec{Qubits: qubits, Layers: layers, CX: cx, T: tDensity}
	c, err := workload.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator()
	for _, random := range []bool{false, true} {
		rng := rand.New(rand.NewSource(seed))
		p, defects, err := oraclePlacement(c.NumQubits, random, defectRate, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []RouteMode{RouteXY, RouteBox, RouteAdaptive} {
			for _, style := range Styles() {
				cfg := Config{Mode: mode, Style: style, Defects: defects, RecordPaths: true, MaxCycles: 1 << 20}
				label := fmt.Sprintf("seed %d %s random=%v defects=%q %s/%s", seed, spec, random, defects, mode.name(), style)
				want, werr := simulateReference(c, p, cfg)
				got, gerr := sim.Simulate(c, p, cfg)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: reference error %v, engine error %v", label, werr, gerr)
				}
				if werr != nil {
					continue
				}
				if got.Latency != want.Latency || !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.End, want.End) {
					t.Fatalf("%s: schedules differ\nreference latency %d start %v end %v\nengine    latency %d start %v end %v",
						label, want.Latency, want.Start, want.End, got.Latency, got.Start, got.End)
				}
				if err := got.CheckNoOverlaps(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if cp := styledCriticalPath(c, cfg); got.Latency < cp {
					t.Fatalf("%s: latency %d below critical path %d", label, got.Latency, cp)
				}
			}
		}
	}
}

// FuzzSimulateOracle checks the event-driven engine against
// simulateReference on random workload circuits × {line, random}
// placements × every route mode × every interaction style: both must
// agree on failure, and on success give identical per-gate Start/End
// and Latency, with no overlapping braids and Latency at or above the
// critical path. Stalls is not compared: the wake schedule defines it.
func FuzzSimulateOracle(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(6), uint8(50), uint8(30), uint8(0))
	f.Add(int64(2), uint8(20), uint8(12), uint8(80), uint8(10), uint8(10))
	f.Add(int64(3), uint8(13), uint8(20), uint8(100), uint8(50), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, qubits, layers, cx, tDensity, defects uint8) {
		simulateOracleCase(t, seed, 2+int(qubits)%30, 1+int(layers)%24,
			float64(cx%101)/100, float64(tDensity%101)/100, float64(defects%30)/100)
	})
}

// TestSimulateOracle is the fixed-seed slice of FuzzSimulateOracle.
func TestSimulateOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		simulateOracleCase(t, seed, 6+int(seed)*3, 8+int(seed), 0.3+0.08*float64(seed), 0.3, []float64{0, 0.1, 0.2}[seed%3])
	}
}
