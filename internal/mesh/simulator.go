package mesh

import (
	"fmt"
	"sort"
	"strings"

	"magicstate/internal/circuit"
	"magicstate/internal/layout"
)

// Simulator is a reusable, allocation-free simulation engine. It owns
// every piece of scratch state a run needs — the lattice, the router's
// reservation table and stamp-indexed BFS scratch, the ready/blocked
// queues, the completion and wake heaps — and recycles them across calls,
// so repeated simulations (a planner's candidate search, the
// force-directed mapper's paired evaluations, sweep-engine grid points)
// cost only the Result they return. The zero value is ready to use;
// mesh.Simulate wraps a shared pool of Simulators for one-shot callers.
//
// A Simulator is NOT safe for concurrent use; give each goroutine its
// own (or go through mesh.Simulate, whose pool does this automatically).
// Reuse never changes results: a reused Simulator produces output
// byte-identical to a fresh one, which TestSimulatorReuseMatchesFresh
// locks in.
//
// Event loop: gates ready to issue sit in a program-order ready queue.
// A gate whose braid fails to route is parked on the wake heap keyed by a
// sound earliest-retry bound (the routers guarantee the route keeps
// failing until then, because reservations only ever extend), and is
// reconsidered only at the first completion event at or past that bound —
// turning the original retry-every-event rescan of every available gate
// into near-O(events log n) work. Routing failures with no usable bound
// (greedy Steiner trees, structurally-blocked BFS) simply stay in the
// ready queue and retry every event, preserving the original semantics.
type Simulator struct {
	lat *Lattice
	rt  *router
	// latDefects is the canonical defect-map string the cached lattice
	// was built with; a config with a different defect set forces a
	// lattice rebuild even at the same tile dimensions. A rebuild reuses
	// the lattice's and the router's arrays wherever they are big enough.
	latDefects string

	// Dependency DAG cache: circuits are immutable once built everywhere
	// in this repository, so repeated simulations of the same *Circuit
	// reuse one DAG instead of re-deriving it per call.
	dagFor   *circuit.Circuit
	dagGates int
	dag      *circuit.DAG

	indeg []int
	// ready holds gates eligible to attempt this pass, including gates
	// that failed routing without a wake bound (greedy Steiner trees,
	// structurally-blocked BFS) — those are retried every event, as the
	// pre-arena simulator retried everything. newReady collects gates
	// whose last dependency finished mid-pass.
	ready    []int
	newReady []int
	wake     eventHeap // parked gates keyed by earliest-retry cycle
	comps    eventHeap // running gates keyed by completion cycle

	portBuf [][]int
	tgtBuf  []layout.Point

	// Stamp-indexed placement-validation scratch (replaces the map
	// layout.Placement.Validate builds per call).
	tileStamp []int
	tileWho   []int
	tileEpoch int
}

// NewSimulator returns an empty simulator; arenas are grown on first use
// and retained for subsequent calls.
func NewSimulator() *Simulator { return &Simulator{} }

// event is a (cycle, gate) pair on one of the simulator's heaps.
type event struct {
	t    int
	gate int
}

// eventHeap is a binary min-heap over event.t with concrete-typed push
// and pop (container/heap would box every event through interface{}).
// Tie order among equal cycles is unspecified; the event loop sorts
// woken gates into program order before attempting them and finishes
// same-cycle completions commutatively, so it never matters.
type eventHeap []event

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].t <= s[i].t {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rt := l + 1; rt < n && s[rt].t < s[l].t {
			m = rt
		}
		if s[i].t <= s[m].t {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// validatePlacement performs layout.Placement.Validate's checks (same
// error text) against stamp-indexed scratch instead of a per-call map,
// plus the defect check: no qubit may sit on a defective tile.
func (s *Simulator) validatePlacement(p *layout.Placement, dm *layout.DefectMap) error {
	if cap(s.tileStamp) < p.W*p.H {
		s.tileStamp = make([]int, p.W*p.H)
		s.tileWho = make([]int, p.W*p.H)
	}
	s.tileStamp = s.tileStamp[:p.W*p.H]
	s.tileWho = s.tileWho[:p.W*p.H]
	s.tileEpoch++
	for q, pt := range p.Pos {
		if pt == layout.Unplaced {
			return fmt.Errorf("layout: qubit %d unplaced", q)
		}
		if pt.X < 0 || pt.X >= p.W || pt.Y < 0 || pt.Y >= p.H {
			return fmt.Errorf("layout: qubit %d at %v outside %dx%d grid", q, pt, p.W, p.H)
		}
		if dm.Has(pt) {
			return fmt.Errorf("layout: qubit %d placed on defective tile %v", q, pt)
		}
		ti := pt.Y*p.W + pt.X
		if s.tileStamp[ti] == s.tileEpoch {
			return fmt.Errorf("layout: qubits %d and %d share tile %v", s.tileWho[ti], q, pt)
		}
		s.tileStamp[ti] = s.tileEpoch
		s.tileWho[ti] = q
	}
	return nil
}

// prepare sizes the arenas for (c, p) and resets per-run state. The
// circuit is validated once per DAG-cache miss, so a malformed frontend
// circuit surfaces as a structured error here instead of an
// out-of-range panic deep in the event loop.
func (s *Simulator) prepare(c *circuit.Circuit, p *layout.Placement, dm *layout.DefectMap) error {
	defects := dm.String()
	if s.lat == nil || s.lat.TileW != p.W || s.lat.TileH != p.H || s.latDefects != defects {
		if s.lat == nil {
			s.lat, s.rt = new(Lattice), new(router)
		}
		s.lat.build(p.W, p.H, dm)
		s.rt.use(s.lat)
		s.latDefects = defects
	} else {
		s.rt.reset()
	}
	if s.dagFor != c || s.dagGates != len(c.Gates) {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("mesh: %w", err)
		}
		s.dag = circuit.Deps(c)
		s.dagFor, s.dagGates = c, len(c.Gates)
	}
	n := len(c.Gates)
	if cap(s.indeg) < n {
		s.indeg = make([]int, n)
	}
	s.indeg = s.indeg[:n]
	s.ready = s.ready[:0]
	s.newReady = s.newReady[:0]
	s.wake = s.wake[:0]
	s.comps = s.comps[:0]
	for i := 0; i < n; i++ {
		s.indeg[i] = s.dag.InDegree(i)
		if s.indeg[i] == 0 {
			s.ready = append(s.ready, i)
		}
	}
	return nil
}

// routeMargin is how many cells beyond its endpoints' bounding box a
// braid may route through in RouteBox mode.
const routeMargin = 2

// Simulate executes c on the braid mesh defined by p and returns timing.
// Gates issue in dependency order; braids that cannot claim a
// conflict-free channel path stall until running braids release cells.
// The returned Result is freshly allocated and independent of the
// Simulator; everything else is served from the arenas.
func (s *Simulator) Simulate(c *circuit.Circuit, p *layout.Placement, cfg Config) (*Result, error) {
	if cfg.Distance < 0 {
		return nil, fmt.Errorf("mesh: code distance %d is negative", cfg.Distance)
	}
	cfg.fill()
	dm, err := layout.ParseDefects(cfg.Defects)
	if err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	if len(p.Pos) != c.NumQubits {
		return nil, fmt.Errorf("mesh: placement covers %d qubits, circuit has %d", len(p.Pos), c.NumQubits)
	}
	if err := s.validatePlacement(p, dm); err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	if err := s.prepare(c, p, dm); err != nil {
		return nil, err
	}
	lat, rt, dag := s.lat, s.rt, s.dag

	n := len(c.Gates)
	se := make([]int, 2*n)
	res := &Result{
		Start: se[:n:n],
		End:   se[n:],
		Area:  p.Area(),
	}
	if cfg.RecordPaths {
		res.Paths = make([][]int, n)
		res.HoldEnd = make([]int, n)
	}
	for i := range res.Start {
		res.Start[i] = -1
		res.End[i] = -1
	}

	completed := 0
	t := 0
	adaptive := cfg.Mode == RouteAdaptive

	// record is the one place gate timing — and therefore Latency, the
	// maximum recorded end — is accounted.
	record := func(gi, start, end int) {
		res.Start[gi], res.End[gi] = start, end
		if end > res.Latency {
			res.Latency = end
		}
	}
	finish := func(gi int) {
		completed++
		for _, su := range dag.Succ[gi] {
			s.indeg[su]--
			if s.indeg[su] == 0 {
				s.newReady = append(s.newReady, su)
			}
		}
	}
	routePair := func(srcQ, dstQ circuit.Qubit) ([]int, int) {
		if cfg.Mode == RouteXY {
			return rt.routeXY(p.At(int(srcQ)), p.At(int(dstQ)), t)
		}
		s.portBuf = append(s.portBuf[:0], lat.PortsOf(p.At(int(srcQ))), lat.PortsOf(p.At(int(dstQ))))
		rt.setBox(s.portBuf, adaptive, routeMargin)
		return rt.route(s.portBuf[0], s.portBuf[1], t)
	}

	for completed < n {
		if t > cfg.MaxCycles {
			return nil, fmt.Errorf("mesh: exceeded %d cycles with %d/%d gates done", cfg.MaxCycles, completed, n)
		}
		// Wake parked gates whose retry bound has been reached. Bounds
		// between event times wake at the next completion event, exactly
		// when the original retry-every-event loop would have retried.
		for len(s.wake) > 0 && s.wake[0].t <= t {
			s.ready = append(s.ready, s.wake.pop().gate)
		}
		s.ready = append(s.ready, s.newReady...)
		s.newReady = s.newReady[:0]
		// Attempt to start every attemptable gate; zero-duration gates
		// complete inline and may enable more, so loop until quiescent.
		// The sort keeps program-order arbitration.
		for progress := true; progress && len(s.ready) > 0; {
			progress = false
			sort.Ints(s.ready)
			pending := s.ready
			next := pending[:0]
			for _, gi := range pending {
				g := &c.Gates[gi]
				dur, hold := cfg.styleCycles(g)
				if dur == 0 {
					record(gi, t, t)
					finish(gi)
					progress = true
					continue
				}
				if !g.Kind.IsTwoQubit() {
					record(gi, t, t+dur)
					s.comps.push(event{t + dur, gi})
					progress = true
					continue
				}
				var path []int
				bound := 0
				switch g.Kind {
				case circuit.KindCXX:
					if cfg.Mode == RouteXY {
						s.tgtBuf = s.tgtBuf[:0]
						for _, tq := range g.Targets {
							s.tgtBuf = append(s.tgtBuf, p.At(int(tq)))
						}
						path, bound = rt.routeXYTree(p.At(int(g.Control)), s.tgtBuf, t)
						break
					}
					s.portBuf = append(s.portBuf[:0], lat.PortsOf(p.At(int(g.Control))))
					for _, tq := range g.Targets {
						s.portBuf = append(s.portBuf, lat.PortsOf(p.At(int(tq))))
					}
					rt.setBox(s.portBuf, adaptive, routeMargin)
					path = rt.routeTree(s.portBuf, t)
				case circuit.KindMove:
					path, bound = routePair(g.Control, g.Dest)
				default: // CNOT, InjectT, InjectTdag
					if g.Control == circuit.NoQubit {
						// Ambient injection: local operation on the target.
						record(gi, t, t+dur)
						s.comps.push(event{t + dur, gi})
						progress = true
						continue
					}
					path, bound = routePair(g.Control, g.Targets[0])
				}
				if path == nil {
					res.Stalls++
					if bound > t {
						s.wake.push(event{bound, gi})
					} else {
						next = append(next, gi)
					}
					continue
				}
				rt.reserve(path, t+hold)
				if cfg.RecordPaths {
					res.Paths[gi] = append([]int(nil), path...)
					res.HoldEnd[gi] = t + hold
				}
				record(gi, t, t+dur)
				s.comps.push(event{t + dur, gi})
				progress = true
			}
			s.ready = append(next, s.newReady...)
			s.newReady = s.newReady[:0]
		}
		if completed >= n {
			break
		}
		if len(s.comps) == 0 {
			first := -1
			for _, gi := range s.ready {
				if first < 0 || gi < first {
					first = gi
				}
			}
			for _, e := range s.wake {
				if first < 0 || e.gate < first {
					first = e.gate
				}
			}
			return nil, fmt.Errorf("mesh: deadlock at cycle %d: %d gates stuck, none running; first is gate %d (%s)",
				t, len(s.ready)+len(s.wake), first, describeGate(&c.Gates[first], p))
		}
		// Advance to the next completion and drain all completions there.
		t = s.comps[0].t
		for len(s.comps) > 0 && s.comps[0].t == t {
			finish(s.comps.pop().gate)
		}
	}
	return res, nil
}

// describeGate names a gate's kind, operand qubits and their tiles for
// error messages, e.g. "CNOT q0→q1, tiles (0,0)→(1,1)".
func describeGate(g *circuit.Gate, p *layout.Placement) string {
	var qs, tiles strings.Builder
	for i, q := range g.Targets {
		if i > 0 {
			qs.WriteByte(',')
			tiles.WriteByte(',')
		}
		pt := p.At(int(q))
		fmt.Fprintf(&qs, "q%d", q)
		fmt.Fprintf(&tiles, "(%d,%d)", pt.X, pt.Y)
	}
	if g.Control != circuit.NoQubit {
		pt := p.At(int(g.Control))
		return fmt.Sprintf("%s q%d→%s, tiles (%d,%d)→%s",
			strings.ToUpper(g.Kind.String()), g.Control, &qs, pt.X, pt.Y, &tiles)
	}
	return fmt.Sprintf("%s %s, tiles %s", strings.ToUpper(g.Kind.String()), &qs, &tiles)
}
