package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"magicstate/internal/core"
	"magicstate/internal/experiments"
	"magicstate/internal/layout"
	"magicstate/internal/mesh"
	"magicstate/internal/store"
	"magicstate/internal/sweep"
)

// passOut is what one pass hands back to the harness.
type passOut struct {
	// wall is the timed region of the pass: the operation sequence
	// alone, without the output checks that follow it. rss is the peak
	// resident set (MB) of the process doing the work, up to the end of
	// that region.
	wall, rss         float64
	attempted, failed int
	errs              []string
	// digests fingerprints every operation's output, in operation
	// order; a traced pass must reproduce its untraced twin's.
	digests [][32]byte
	// quality holds the deterministic result metrics of the pass.
	quality map[string]float64
	// counters holds per-layer counts the program itself reports.
	counters map[string]float64
	// lat, first and repeat are per-request latencies (serve_mixed).
	lat, first, repeat []float64
}

func (o *passOut) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// workload is one benchmark workload. setup builds fresh state for the
// next pass and warms it on a seed disjoint from every pass seed; pass
// runs the timed operation sequence (tr nil: untraced, through the
// program's own entry points; tr non-nil: through the benchmark's
// span-instrumented composition of the same layer calls); teardown
// releases what setup acquired.
type workload interface {
	setup(warmSeed int64) error
	pass(seed int64, tr *tracer, lc *layerCounts, verify bool) (*passOut, error)
	teardown()
}

// endTimed closes the timed region of a pass run in this process.
func (o *passOut) endTimed(t0 time.Time) {
	o.wall = since(t0)
	o.rss = selfPeakRSSMB()
}

// checkPoints applies the per-point checks to a grid's reports. With
// overlaps set it also re-simulates every point with path recording to
// audit the braid invariant (outside any timed region).
func checkPoints(out *passOut, reps []*core.Report, overlaps bool) {
	var vols []float64
	for _, r := range reps {
		out.attempted++
		err := checkReport(r)
		if err == nil && overlaps {
			err = checkOverlaps(r)
		}
		if err != nil {
			out.fail(err)
			continue
		}
		vols = append(vols, r.Volume)
		out.digests = append(out.digests, reportDigest(r))
	}
	out.quality["volume_geomean"] = geomean(vols)
}

// ---- table1_quick ----------------------------------------------------

// table1Quick regenerates Table I on paperbench's quick grid on a fresh
// sweep engine. Force-directed annealing dominates it.
type table1Quick struct {
	workers int
	eng     *sweep.Engine
}

var (
	quickL1 = []int{2, 4}
	quickL2 = []int{4, 16}
)

// table1Configs mirrors experiments.Table1's point grid (level-1
// capacities per strategy, level-2 capacities per strategy and reuse
// policy), so the harness can read each point's report back from the
// engine's memo and the traced pass can run the same points.
func table1Configs(seed int64) []core.Config {
	var cfgs []core.Config
	for _, c := range quickL1 {
		for _, s := range []core.Strategy{core.StrategyRandom, core.StrategyLinear, core.StrategyForceDirected, core.StrategyGraphPartition} {
			cfgs = append(cfgs, core.Config{K: c, Levels: 1, Strategy: s, Seed: seed})
		}
	}
	for _, c := range quickL2 {
		k := map[int]int{4: 2, 16: 4}[c]
		for _, s := range []core.Strategy{core.StrategyLinear, core.StrategyForceDirected, core.StrategyGraphPartition, core.StrategyStitch} {
			for _, reuse := range []bool{false, true} {
				cfgs = append(cfgs, core.Config{K: k, Levels: 2, Strategy: s, Reuse: reuse, Seed: seed})
			}
		}
	}
	return cfgs
}

func (w *table1Quick) setup(warmSeed int64) error {
	// The warm-up fills the annealer's arenas and the simulator pool on
	// a small grid (level 1 only) with a seed no pass uses, so it never
	// pre-computes a timed point.
	experiments.SetEngine(sweep.New(sweep.Options{Workers: w.workers}))
	if _, err := experiments.Table1(quickL1, nil, warmSeed); err != nil {
		return fmt.Errorf("table1 warm-up: %w", err)
	}
	w.eng = sweep.New(sweep.Options{Workers: w.workers})
	experiments.SetEngine(w.eng)
	return nil
}

func (w *table1Quick) pass(seed int64, tr *tracer, lc *layerCounts, verify bool) (*passOut, error) {
	out := &passOut{quality: map[string]float64{}, counters: map[string]float64{}}
	cfgs := table1Configs(seed)
	var reps []*core.Report
	if tr == nil {
		t0 := time.Now()
		res, err := experiments.Table1(quickL1, quickL2, seed)
		out.endTimed(t0)
		if err != nil {
			return nil, err
		}
		out.quality["headline_ratio"] = res.HeadlineImprovement()
		for _, cfg := range cfgs {
			rep, ok := w.eng.PeekOne(cfg)
			if !ok {
				return nil, fmt.Errorf("table1: point %+v missing from the engine memo", cfg)
			}
			reps = append(reps, rep)
		}
		hits, misses := w.eng.CacheStats()
		out.counters["sweep.memo_hits"] = float64(hits)
		out.counters["sweep.memo_misses"] = float64(misses)
	} else {
		// Force-directed candidate evaluations are memoized process-wide
		// by their full options; RestartWorkers is a throughput-only
		// knob (results never depend on it), so setting it gives the
		// traced pass its own memo entries and the same results.
		for i := range cfgs {
			cfgs[i].FD.RestartWorkers = 1
		}
		t0 := time.Now()
		p := tr.pass()
		var err error
		reps, err = newTracedPipeline(tr, lc).runGrid(cfgs, w.workers)
		p.end()
		out.endTimed(t0)
		if err != nil {
			return nil, err
		}
	}
	checkPoints(out, reps, verify)
	return out, nil
}

func (w *table1Quick) teardown() {}

// ---- mesh_sweep ------------------------------------------------------

// meshSweep runs a grid of non-annealing strategies on a fresh sweep
// engine: mesh simulation and graph-partition placement carry it, and
// the defect and random-workload points exercise the router's detours
// and the frontend.
type meshSweep struct {
	workers int
	eng     *sweep.Engine
	tmp     string
}

// meshConfigs builds the mesh_sweep grid for seed. The seed drives the
// seeded mappers, the defect maps and the random-workload specs.
func meshConfigs(seed int64) []core.Config {
	rng := rand.New(rand.NewSource(seed))
	// The costliest points come first so the two workers finish
	// together instead of one waiting on a late long point.
	cfgs := []core.Config{
		{K: 10, Levels: 2, Strategy: core.StrategyRandom, Reuse: true, Seed: seed, MeshMode: mesh.RouteBox},
		{K: 2, Levels: 3, Strategy: core.StrategyLinear, Reuse: true, Seed: seed},
		{K: 8, Levels: 2, Strategy: core.StrategyRandom, Reuse: true, Seed: seed, MeshMode: mesh.RouteBox},
		{K: 8, Levels: 2, Strategy: core.StrategyLinear, Reuse: true, Seed: seed, MeshMode: mesh.RouteBox},
		{K: 2, Levels: 3, Strategy: core.StrategyStitch, Reuse: true, Seed: seed},
	}
	for _, k := range []int{10, 8, 6} {
		for _, s := range []core.Strategy{core.StrategyGraphPartition, core.StrategyLinear, core.StrategyRandom, core.StrategyStitch} {
			for _, reuse := range []bool{false, true} {
				cfgs = append(cfgs, core.Config{K: k, Levels: 2, Strategy: s, Reuse: reuse, Seed: seed})
			}
		}
	}
	// Interaction styles and routing modes change only the simulation
	// stage, so these points reuse the grid's builds and placements and
	// add pure simulation work.
	for _, k := range []int{10, 8} {
		cfgs = append(cfgs,
			core.Config{K: k, Levels: 2, Strategy: core.StrategyGraphPartition, Reuse: true, Seed: seed, MeshMode: mesh.RouteBox},
			core.Config{K: k, Levels: 2, Strategy: core.StrategyStitch, Reuse: true, Seed: seed, MeshMode: mesh.RouteBox},
		)
		for _, st := range []mesh.InteractionStyle{mesh.StyleLatticeSurgery, mesh.StyleTeleportation} {
			for _, s := range []core.Strategy{core.StrategyLinear, core.StrategyRandom} {
				cfgs = append(cfgs, core.Config{K: k, Levels: 2, Strategy: s, Reuse: true, Seed: seed, Style: st})
			}
		}
	}
	// Defective meshes: a few dead tiles along the row the linear
	// mapping fills force relocations and BFS detours in the router.
	// Defects stay in row 0, as in the defect-ladder preset: with dead
	// tiles in row 1 the linear mapping can deadlock the simulator.
	for _, k := range []int{6, 8} {
		// Resample until at least one tile is dead, so no defect point
		// duplicates a pristine grid point.
		var dm *layout.DefectMap
		for dm == nil {
			dm = layout.SampleDefects(24, 1, 0.12, rng)
		}
		for _, s := range []core.Strategy{core.StrategyLinear, core.StrategyGraphPartition} {
			cfgs = append(cfgs, core.Config{K: k, Levels: 2, Strategy: s, Reuse: true, Seed: seed, Defects: dm.String()})
		}
	}
	for i := 0; i < 4; i++ {
		spec := fmt.Sprintf("q=%d;layers=%d;cx=0.4;t=0.3", 16+rng.Intn(16), 16+rng.Intn(16))
		for _, s := range []core.Strategy{core.StrategyLinear, core.StrategyGraphPartition} {
			cfgs = append(cfgs, core.Config{Strategy: s, Seed: seed, Workload: "random", WorkloadSource: spec})
		}
	}
	return cfgs
}

func (w *meshSweep) setup(warmSeed int64) error {
	warm := sweep.New(sweep.Options{Workers: w.workers})
	var cfgs []core.Config
	for _, s := range []core.Strategy{core.StrategyRandom, core.StrategyLinear, core.StrategyGraphPartition, core.StrategyStitch} {
		cfgs = append(cfgs, core.Config{K: 6, Levels: 2, Strategy: s, Reuse: true, Seed: warmSeed})
	}
	if _, err := warm.Run(context.Background(), cfgs); err != nil {
		return fmt.Errorf("mesh_sweep warm-up: %w", err)
	}
	w.eng = sweep.New(sweep.Options{Workers: w.workers})
	return nil
}

func (w *meshSweep) pass(seed int64, tr *tracer, lc *layerCounts, verify bool) (*passOut, error) {
	out := &passOut{quality: map[string]float64{}, counters: map[string]float64{}}
	cfgs := meshConfigs(seed)
	var reps []*core.Report
	var err error
	if tr == nil {
		t0 := time.Now()
		reps, err = w.eng.Run(context.Background(), cfgs)
		out.endTimed(t0)
		if err != nil {
			return nil, err
		}
		hits, misses := w.eng.CacheStats()
		out.counters["sweep.memo_hits"] = float64(hits)
		out.counters["sweep.memo_misses"] = float64(misses)
	} else {
		t0 := time.Now()
		p := tr.pass()
		reps, err = newTracedPipeline(tr, lc).runGrid(cfgs, w.workers)
		p.end()
		out.endTimed(t0)
		if err != nil {
			return nil, err
		}
		if err := roundTrip(tr, lc, w.tmp, cfgs, reps); err != nil {
			out.attempted++
			out.fail(err)
		}
	}
	checkPoints(out, reps, verify)
	return out, nil
}

func (w *meshSweep) teardown() {}

// roundTrip pushes every point's stage artifacts through the codecs and
// a temporary store: encode, decode, re-encode (which must reproduce
// the bytes), put, get (which must return them). It measures the codec
// and store layers on real artifacts, outside the grid's timed span.
func roundTrip(tr *tracer, lc *layerCounts, tmpRoot string, cfgs []core.Config, reps []*core.Report) error {
	dir, err := tempDir(tmpRoot, "store-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer removeAll(dir)
	defer st.Close()
	root := tr.root(spanRoundTrip, 0)
	defer root.end()
	for i, rep := range reps {
		cfg := cfgs[i]
		b := &core.BuildArtifact{Factory: rep.Factory}
		if cfg.Strategy == core.StrategyStitch {
			b.Placement = rep.Placement
		}
		arts := []struct {
			stage  core.Stage
			encode func() []byte
			decode func([]byte) ([]byte, error)
		}{
			{core.StageBuild, func() []byte { return core.EncodeBuildArtifact(b) }, func(body []byte) ([]byte, error) {
				d, err := core.DecodeBuildArtifact(body)
				if err != nil {
					return nil, err
				}
				return core.EncodeBuildArtifact(d), nil
			}},
			{core.StagePlace, func() []byte { return core.EncodePlaceArtifact(&core.PlaceArtifact{Placement: rep.Placement}) }, func(body []byte) ([]byte, error) {
				d, err := core.DecodePlaceArtifact(body)
				if err != nil {
					return nil, err
				}
				return core.EncodePlaceArtifact(d), nil
			}},
			{core.StageSim, func() []byte { return core.EncodeSimArtifact(rep.Sim) }, func(body []byte) ([]byte, error) {
				d, err := core.DecodeSimArtifact(body)
				if err != nil {
					return nil, err
				}
				return core.EncodeSimArtifact(d), nil
			}},
		}
		for _, a := range arts {
			var body, again []byte
			root.do(spanCodecEncode, func() { body = a.encode() })
			var derr error
			root.do(spanCodecDecode, func() { again, derr = a.decode(body) })
			if derr != nil {
				return fmt.Errorf("%v artifact of point %d: decode: %w", a.stage, i, derr)
			}
			if string(again) != string(body) {
				return fmt.Errorf("%v artifact of point %d: re-encode differs", a.stage, i)
			}
			var perr error
			root.do(spanStorePut, func() { perr = st.PutStage(a.stage, cfg, body) })
			if perr != nil {
				return fmt.Errorf("%v artifact of point %d: put: %w", a.stage, i, perr)
			}
			var got []byte
			var ok bool
			root.do(spanStoreGet, func() { got, ok = st.GetStage(a.stage, cfg) })
			if !ok || string(got) != string(body) {
				return fmt.Errorf("%v artifact of point %d: get returned other bytes", a.stage, i)
			}
			lc.add(func(l *layerCounts) { l.codecBytes += int64(len(body)) })
		}
	}
	return nil
}
