package force

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"magicstate/internal/bravyi"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
)

// localCostNaive is the unpruned local cost: every incident edge of v
// against every comparison edge, geometry derived from the placement
// directly. It is the oracle the pruned localCost must match bit for bit.
func (st *runState) localCostNaive(v int, sample []int) float64 {
	const crossWeight = 4.0
	const spacingWeight = 0.5
	var cost float64
	edges := st.g.Incident(v)
	if len(edges) == 0 {
		return 0
	}
	osegs := make([]layout.Segment, len(sample))
	omidX, omidY := make([]float64, len(sample)), make([]float64, len(sample))
	for k, oi := range sample {
		oe := st.g.Edges[oi]
		a, b := st.p.At(oe.U), st.p.At(oe.V)
		osegs[k] = layout.Segment{A: a, B: b}
		omidX[k] = float64(a.X+b.X) / 2
		omidY[k] = float64(a.Y+b.Y) / 2
	}
	for _, ei := range edges {
		e := st.g.Edges[ei]
		a, b := st.p.At(e.U), st.p.At(e.V)
		cost += e.Weight * float64(layout.Manhattan(a, b))
		seg := layout.Segment{A: a, B: b}
		mx, my := float64(a.X+b.X)/2, float64(a.Y+b.Y)/2
		for k, oi := range sample {
			if oi == ei {
				continue
			}
			if layout.SegmentsConflict(seg, osegs[k]) {
				cost += crossWeight
			}
			dx, dy := mx-omidX[k], my-omidY[k]
			if d2 := dx*dx + dy*dy; d2 < 64 {
				cost += spacingWeight * (8 - math.Sqrt(d2)) / 8
			}
		}
	}
	return cost
}

// tryMoveNaive is tryMove gated by localCostNaive: the oracle for the
// move decisions, so a stale cache at either phase of a move shows up as
// a diverging trajectory.
func (st *runState) tryMoveNaive(v int, delta layout.Point) bool {
	from := st.p.At(v)
	to := layout.Point{X: from.X + delta.X, Y: from.Y + delta.Y}
	if to.X < 0 || to.X >= st.p.W || to.Y < 0 || to.Y >= st.p.H {
		return false
	}
	o := st.occ[to.Y*st.p.W+to.X]
	occupant, swap := int(o)-1, o != 0
	sample := st.sampleEdgeSet()
	before := st.localCostNaive(v, sample)
	if swap {
		before += st.localCostNaive(occupant, sample)
	}
	st.apply(v, to, occupant, swap, from)
	after := st.localCostNaive(v, sample)
	if swap {
		after += st.localCostNaive(occupant, sample)
	}
	if after <= before {
		return true
	}
	st.apply(v, from, occupant, swap, to)
	return false
}

// oracleFactory is an interaction graph with its linear start.
type oracleFactory struct {
	g    *graph.Graph
	init *layout.Placement
}

var (
	oracleOnce      sync.Once
	oracleFactories []oracleFactory
)

// factoriesForOracle builds, once per process, a level-1 K=2 factory
// (m under the default CostSample) and a level-2 K=2 factory (m=492,
// over it).
func factoriesForOracle(tb testing.TB) []oracleFactory {
	oracleOnce.Do(func() {
		for _, p := range []bravyi.Params{{K: 2, Levels: 1, Barriers: true}, {K: 2, Levels: 2, Barriers: true}} {
			f, err := bravyi.Build(p)
			if err != nil {
				panic(err)
			}
			oracleFactories = append(oracleFactories, oracleFactory{graph.FromCircuit(f.Circuit), layout.Linear(f)})
		}
	})
	if len(oracleFactories) != 2 {
		tb.Fatal("oracle factories failed to build")
	}
	return oracleFactories
}

// newOracleRun loads f onto a fresh runState the way run does.
func newOracleRun(f oracleFactory, costSample int, seed int64) *runState {
	opt := Options{CostSample: costSample}
	opt.fill(f.g.N)
	st := &runState{}
	st.load(f.g, f.init, opt, rand.New(rand.NewSource(seed)))
	return st
}

// scatter moves every vertex to a uniformly random distinct tile of the
// expanded canvas.
func (st *runState) scatter() {
	tiles := st.rng.Perm(st.p.W * st.p.H)
	for q := range st.p.Pos {
		st.p.Set(q, layout.Point{X: tiles[q] % st.p.W, Y: tiles[q] / st.p.W})
	}
	st.buildOcc()
}

// checkCost keeps and prepares sample for a move of v alone and
// compares the pruned and naive costs of v bit for bit.
func checkCost(tb testing.TB, st *runState, v int, sample []int) {
	tb.Helper()
	st.keep(sample, v, 0, false)
	st.prepare()
	checkPhase(tb, st, sample, "", v)
}

// checkPhase compares, for each of vs, the pruned cost over the near
// list the last keep and prepare built with the naive cost over the whole
// sample, bit for bit, and returns the naive costs' sum.
func checkPhase(tb testing.TB, st *runState, sample []int, phase string, vs ...int) float64 {
	tb.Helper()
	var sum float64
	for _, v := range vs {
		got, want := st.localCost(v), st.localCostNaive(v, sample)
		if math.Float64bits(got) != math.Float64bits(want) {
			tb.Fatalf("%slocalCost(%d) over %d edges = %v, naive loop gives %v", phase, v, len(sample), got, want)
		}
		sum += want
	}
	return sum
}

// checkBoxes compares the edge-box cache with boxes derived from the
// placement from scratch.
func checkBoxes(tb testing.TB, st *runState) {
	tb.Helper()
	for ei, e := range st.g.Edges {
		if want := edgeBox(st.p.At(e.U), st.p.At(e.V)); st.ebox[ei] != want {
			tb.Fatalf("ebox[%d] = %v, placement gives %v", ei, st.ebox[ei], want)
		}
	}
}

func TestLocalCostMatchesNaive(t *testing.T) {
	facts := factoriesForOracle(t)
	if m := len(facts[1].g.Edges); m <= 400 {
		t.Fatalf("level-2 factory has %d edges; the oracle needs one over the default CostSample", m)
	}
	for fi, f := range facts {
		m := len(f.g.Edges)
		// Below, at the default, and above m: the identity list and the
		// drawn-with-replacement sample both get checked.
		for _, cs := range []int{m / 3, 400, 2 * m} {
			st := newOracleRun(f, cs, int64(17*fi+cs))
			for round := 0; round < 4; round++ {
				if round > 0 {
					st.scatter()
				}
				for v := 0; v < f.g.N; v++ {
					checkCost(t, st, v, st.sampleEdgeSet())
				}
			}
			// Hand-built samples: v's own edges (so ei meets itself),
			// each twice, then random duplicates.
			for v := 0; v < f.g.N; v++ {
				inc := f.g.Incident(v)
				sample := append(append([]int(nil), inc...), inc...)
				for k := 0; k < 32; k++ {
					e := st.rng.Intn(m)
					sample = append(sample, e, e)
				}
				checkCost(t, st, v, sample)
			}
		}
	}
}

// TestMovePhasesMatchNaive drives tryMove's phases by hand: one keep per
// move, then, before and after apply, the pruned costs of the moved
// vertices against the naive loop over the whole sample. Every vertex
// tries all eight unit steps, so the moves include swaps, communityKick's
// diagonal steps and steps along the canvas edge; CostSample is below
// and above m. A move is kept when the naive gate would keep it, so the
// placement, and with it the edge-box cache, drifts as a run's would.
func TestMovePhasesMatchNaive(t *testing.T) {
	deltas := []layout.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {X: 1, Y: 1}, {X: 1, Y: -1}, {X: -1, Y: 1}, {X: -1, Y: -1}}
	for fi, f := range factoriesForOracle(t) {
		m := len(f.g.Edges)
		for _, cs := range []int{m / 3, 2 * m} {
			st := newOracleRun(f, cs, int64(31*fi+cs))
			var swaps, diagonals, rim int
			for round := 0; round < 2; round++ {
				if round > 0 {
					st.scatter()
				}
				for v := 0; v < f.g.N; v++ {
					for _, d := range deltas {
						from := st.p.At(v)
						to := layout.Point{X: from.X + d.X, Y: from.Y + d.Y}
						if to.X < 0 || to.X >= st.p.W || to.Y < 0 || to.Y >= st.p.H {
							continue
						}
						o := st.occ[to.Y*st.p.W+to.X]
						occupant, swap := int(o)-1, o != 0
						moved := []int{v}
						if swap {
							moved = append(moved, occupant)
							swaps++
						}
						if d.X != 0 && d.Y != 0 {
							diagonals++
						}
						if from.X == 0 || from.Y == 0 || from.X == st.p.W-1 || from.Y == st.p.H-1 {
							rim++
						}
						sample := st.sampleEdgeSet()
						st.keep(sample, v, occupant, swap)
						st.prepare()
						before := checkPhase(t, st, sample, "before: ", moved...)
						st.apply(v, to, occupant, swap, from)
						st.prepare()
						if after := checkPhase(t, st, sample, "after: ", moved...); after > before {
							st.apply(v, from, occupant, swap, to)
						}
					}
				}
				checkBoxes(t, st)
			}
			if swaps == 0 || diagonals == 0 || rim == 0 {
				t.Fatalf("factory %d, CostSample %d: %d swaps, %d diagonal and %d canvas-edge moves; want some of each", fi, cs, swaps, diagonals, rim)
			}
		}
	}
}

func TestIntnerMatchesIntn(t *testing.T) {
	for _, seed := range []int64{1, 2, 99, -7} {
		for _, n := range []int{1, 2, 3, 400, 492, 1112, 1 << 20, 1<<31 - 1} {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			d := newIntner(n)
			for i := 0; i < 10000; i++ {
				if g, w := d.draw(got), want.Intn(n); g != w {
					t.Fatalf("seed %d, n %d, draw %d: intner gives %d, Intn %d", seed, n, i, g, w)
				}
			}
			if got.Int63() != want.Int63() {
				t.Fatalf("seed %d, n %d: intner consumed the stream differently from Intn", seed, n)
			}
		}
	}
}

// FuzzLocalCostOracle replays a move sequence through tryMove on one run
// and through tryMoveNaive on a twin run with the same seed, and asserts
// that every decision agrees and that, after each move, the edge-box
// cache matches the placement and the pruned and naive costs of the
// moved vertex and a random other one agree bit for bit. The fuzzer
// picks the seed, the factory (bit 0 of shape), whether to scatter the
// start (bit 1), CostSample and the move count; the moves
// themselves come from a stream seeded by seed, which keeps inputs a few
// scalars long so the fuzzer's minimizer never stalls on them.
func FuzzLocalCostOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(399), uint8(64))
	f.Add(int64(2), uint8(1), uint16(399), uint8(64))
	f.Add(int64(9), uint8(3), uint16(200), uint8(16))
	f.Add(int64(42), uint8(2), uint16(0), uint8(16))
	facts := factoriesForOracle(f)
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, costSample uint16, moves uint8) {
		fact := facts[shape&1]
		cs := 1 + int(costSample)%700
		st := newOracleRun(fact, cs, seed)
		ref := newOracleRun(fact, cs, seed)
		if shape&2 != 0 {
			st.scatter()
			ref.scatter()
		}
		// The moves and cost checks draw from their own stream, so the
		// twin runs' streams stay in lockstep.
		r := rand.New(rand.NewSource(seed))
		sample := make([]int, cs)
		deltas := [4]layout.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
		for i := 0; i < int(moves)%65; i++ {
			v, d := r.Intn(fact.g.N), deltas[r.Intn(4)]
			if got, want := st.tryMove(v, d), ref.tryMoveNaive(v, d); got != want {
				t.Fatalf("move %d of vertex %d: tryMove = %v, naive gate = %v", i, v, got, want)
			}
			for k := range sample {
				sample[k] = r.Intn(len(fact.g.Edges))
			}
			checkBoxes(t, st)
			checkCost(t, st, v, sample)
			checkCost(t, st, r.Intn(fact.g.N), sample)
		}
	})
}
