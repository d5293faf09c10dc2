// Package subdiv generalizes the paper's hierarchical stitching (§VII) to
// arbitrary circuits, the first item of its future work (§IX): extract a
// sequence of temporal subdivisions from the program, embed each
// subdivision's interaction subgraph near-optimally, and patch the
// subdivisions together with explicit state-relocation braids (the swap
// gates the paper sketches become Move gates on the braid mesh).
//
// Relocations consume fresh tile slots, so the stitcher trades area for
// per-window locality exactly as the no-reuse factory policy does (§V.B):
// each window boundary may relocate at most MoveBudget qubits onto
// scratch tiles chosen by the same centroid heuristic the force-directed
// mapper uses (§VI.B.1). Circuits with phase structure (barriers, or
// block-local activity that shifts over time) gain; structure-free
// circuits keep their single global embedding because no relocation shows
// positive gain.
package subdiv

import (
	"fmt"
	"math/rand"
	"sort"

	"magicstate/internal/circuit"
	"magicstate/internal/graph"
	"magicstate/internal/layout"
	"magicstate/internal/partition"
)

// Options tunes the stitcher.
type Options struct {
	// MoveBudget caps relocations per window boundary (zero means
	// max(2, qubits/8)).
	MoveBudget int
	// Seed drives the embedding.
	Seed int64
}

// windowCount is the number of temporal subdivisions when the circuit
// has no barriers. Circuits with barriers are always cut at every
// barrier.
const windowCount = 4

// minGain is the minimum interaction-weighted distance improvement
// (upcoming-window interaction count × Manhattan distance moved closer
// to the window centroid) a relocation must show before the stitcher
// pays for a Move braid: roughly one Move's worth of braid occupancy
// under the default cost model. Static workloads show no qualifying
// relocations and keep their single global embedding for free.
const minGain = 24

func (o *Options) fill(n int) {
	if o.MoveBudget <= 0 {
		o.MoveBudget = n / 8
		if o.MoveBudget < 2 {
			o.MoveBudget = 2
		}
	}
}

// Window is a half-open gate range [Start, End) of the input circuit.
type Window struct{ Start, End int }

// Result is a stitched mapping: a rewritten circuit whose extra qubit ids
// are relocation slots, the placement covering every slot, the window
// boundaries used, and the number of Move braids inserted.
type Result struct {
	Circuit   *circuit.Circuit
	Placement *layout.Placement
	Windows   []Window
	Moves     int
}

// Stitch subdivides c temporally, embeds the first window's structure
// globally, and re-patches the mapping at each window boundary with
// budgeted relocations. The input must not already contain Move gates
// (slot identity is owned by the stitcher).
func Stitch(c *circuit.Circuit, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("subdiv: %w", err)
	}
	if c.NumQubits == 0 || len(c.Gates) == 0 {
		return nil, fmt.Errorf("subdiv: empty circuit")
	}
	for i := range c.Gates {
		if c.Gates[i].Kind == circuit.KindMove {
			return nil, fmt.Errorf("subdiv: input gate %d is a Move; slot identity is owned by the stitcher", i)
		}
	}
	opt.fill(c.NumQubits)
	windows := cutWindows(c, windowCount)
	rng := rand.New(rand.NewSource(opt.Seed))

	n := c.NumQubits
	scratch := (len(windows) - 1) * opt.MoveBudget
	w, h := layout.GridFor(n+scratch, 1)

	// Global embedding of the whole-circuit interaction graph seeds the
	// home positions (windows only adjust it with relocations).
	g := graph.FromCircuit(c)
	home := partition.Embed(g, w, h, rng)

	out := circuit.New(0)
	pl := layout.NewPlacement(0, w, h)
	curSlot := make([]circuit.Qubit, n)
	addSlot := func(name string, pt layout.Point) circuit.Qubit {
		q := out.AddQubit(name)
		pl.Pos = append(pl.Pos, pt)
		return q
	}
	for q := 0; q < n; q++ {
		curSlot[q] = addSlot(c.Name(circuit.Qubit(q)), home.At(q))
	}
	free := freeTiles(pl, w, h)

	res := &Result{Circuit: out, Placement: pl, Windows: windows}
	for wi, win := range windows {
		if wi > 0 {
			moved := repatch(c, win, curSlot, pl, &free, out, opt)
			res.Moves += moved
		}
		for gi := win.Start; gi < win.End; gi++ {
			out.Append(remap(&c.Gates[gi], curSlot))
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("subdiv: stitched circuit invalid: %w", err)
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("subdiv: stitched placement invalid: %w", err)
	}
	return res, nil
}

// cutWindows slices the circuit at barriers when present, otherwise into
// `count` spans of roughly equal two-qubit gate mass.
func cutWindows(c *circuit.Circuit, count int) []Window {
	var cuts []int
	for i := range c.Gates {
		if c.Gates[i].Kind == circuit.KindBarrier {
			cuts = append(cuts, i+1)
		}
	}
	if len(cuts) > 0 {
		var ws []Window
		start := 0
		for _, cut := range cuts {
			if cut > start {
				ws = append(ws, Window{Start: start, End: cut})
				start = cut
			}
		}
		if start < len(c.Gates) {
			ws = append(ws, Window{Start: start, End: len(c.Gates)})
		}
		return ws
	}
	total := c.TwoQubitGateCount()
	if count > total && total > 0 {
		count = total
	}
	if count < 1 {
		count = 1
	}
	per := (total + count - 1) / count
	var ws []Window
	start, mass := 0, 0
	for i := range c.Gates {
		if c.Gates[i].Kind.IsTwoQubit() {
			mass++
		}
		if mass >= per && i+1 < len(c.Gates) {
			ws = append(ws, Window{Start: start, End: i + 1})
			start, mass = i+1, 0
		}
	}
	ws = append(ws, Window{Start: start, End: len(c.Gates)})
	return ws
}

// repatch relocates up to MoveBudget qubits whose upcoming-window
// centroid is far from their current tile, emitting Move braids.
func repatch(c *circuit.Circuit, win Window, curSlot []circuit.Qubit,
	pl *layout.Placement, free *[]layout.Point, out *circuit.Circuit, opt Options) int {
	type accum struct {
		sx, sy float64
		n      int
	}
	cent := make(map[int]*accum)
	note := func(q, other circuit.Qubit) {
		a := cent[int(q)]
		if a == nil {
			a = &accum{}
			cent[int(q)] = a
		}
		pt := pl.At(int(curSlot[other]))
		a.sx += float64(pt.X)
		a.sy += float64(pt.Y)
		a.n++
	}
	for gi := win.Start; gi < win.End; gi++ {
		g := &c.Gates[gi]
		if !g.Kind.IsTwoQubit() {
			continue
		}
		ops := g.Operands()
		for _, q := range ops {
			for _, other := range ops {
				if other != q {
					note(q, other)
				}
			}
		}
	}
	type cand struct {
		q      int
		target layout.Point
		weight int // upcoming-window interaction count
		gain   int // weight x current distance to centroid (an upper bound)
	}
	var cands []cand
	for q, a := range cent {
		cx := int(a.sx/float64(a.n) + 0.5)
		cy := int(a.sy/float64(a.n) + 0.5)
		cur := pl.At(int(curSlot[q]))
		target := layout.Point{X: cx, Y: cy}
		cands = append(cands, cand{
			q: q, target: target, weight: a.n,
			gain: a.n * layout.Manhattan(cur, target),
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		return cands[i].q < cands[j].q
	})
	moved := 0
	for _, cd := range cands {
		if moved >= opt.MoveBudget || len(*free) == 0 {
			break
		}
		if cd.gain < minGain {
			break // sorted descending: nothing further qualifies either
		}
		// Nearest free tile to the centroid target.
		best, bestD := -1, 1<<30
		for i, t := range *free {
			if d := layout.Manhattan(t, cd.target); d < bestD {
				best, bestD = i, d
			}
		}
		cur := pl.At(int(curSlot[cd.q]))
		// Pay for a Move only when the interaction-weighted distance it
		// saves covers the braid's cost.
		if cd.weight*(layout.Manhattan(cur, cd.target)-bestD) < minGain {
			continue
		}
		tile := (*free)[best]
		*free = append((*free)[:best], (*free)[best+1:]...)
		src := curSlot[cd.q]
		dst := out.AddQubit("")
		pl.Pos = append(pl.Pos, tile)
		out.Move(src, dst)
		curSlot[cd.q] = dst
		moved++
	}
	return moved
}

// remap rewrites a gate's operands through the current slot assignment.
func remap(g *circuit.Gate, curSlot []circuit.Qubit) circuit.Gate {
	ng := *g
	if g.Control != circuit.NoQubit {
		ng.Control = curSlot[g.Control]
	}
	ng.Targets = make([]circuit.Qubit, len(g.Targets))
	for i, t := range g.Targets {
		ng.Targets[i] = curSlot[t]
	}
	// Dest is only meaningful on Move gates, which the stitcher owns and
	// the input is guaranteed not to contain.
	return ng
}

// freeTiles lists grid tiles not used by the placement, row-major.
func freeTiles(pl *layout.Placement, w, h int) []layout.Point {
	occ := make(map[layout.Point]bool, len(pl.Pos))
	for _, pt := range pl.Pos {
		occ[pt] = true
	}
	var free []layout.Point
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pt := layout.Point{X: x, Y: y}
			if !occ[pt] {
				free = append(free, pt)
			}
		}
	}
	return free
}

// GlobalEmbed returns the single global recursive-bisection embedding of
// c — the baseline the stitched mapping is compared against.
func GlobalEmbed(c *circuit.Circuit, seed int64) *layout.Placement {
	g := graph.FromCircuit(c)
	return partition.EmbedSquare(g, rand.New(rand.NewSource(seed)))
}
