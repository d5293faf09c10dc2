package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"magicstate/internal/core"
	"magicstate/internal/mesh"
	"magicstate/internal/store"
	"magicstate/internal/sweep"
	"magicstate/internal/sweep/memo"
)

// tracedPipeline runs grid points through the pipeline's exported
// stages — the composition the sweep engine's stage tier uses on a
// memo miss (BuildStage → PlaceStage → SimStage → Assemble, each stage
// artifact shared in memory by its stage key) — with a span around
// every stage call. It exists only in the benchmark: spans are taken
// from outside the program, around calls into each layer.
type tracedPipeline struct {
	tr     *tracer
	stages *memo.Cache
	layer  *layerCounts
}

// layerCounts accumulates the per-layer work counts of traced passes.
type layerCounts struct {
	mu                          sync.Mutex
	placeCalls, simCalls        int64
	simCycles, simStalls, gates int64
	codecBytes                  int64
}

func (l *layerCounts) add(fn func(*layerCounts)) {
	l.mu.Lock()
	fn(l)
	l.mu.Unlock()
}

type stageKey struct {
	stage       core.Stage
	key         store.Key
	recordPaths bool
}

func newTracedPipeline(tr *tracer, lc *layerCounts) *tracedPipeline {
	return &tracedPipeline{tr: tr, stages: memo.New(0), layer: lc}
}

// runGrid evaluates cfgs on workers goroutines through the traced stage
// composition, one root span per point.
func (tp *tracedPipeline) runGrid(cfgs []core.Config, workers int) ([]*core.Report, error) {
	eng := sweep.New(sweep.Options{Workers: workers})
	return sweep.Map(context.Background(), eng, cfgs, func(i int, cfg core.Config) (*core.Report, error) {
		root := tp.tr.root(spanPoint, int64(i))
		defer root.end()
		return tp.run(root, cfg)
	})
}

func (tp *tracedPipeline) run(root *scope, cfg core.Config) (*core.Report, error) {
	ctx := context.Background()
	bv, err := tp.stages.Do(stageKey{stage: core.StageBuild, key: store.StageKeyOf(core.StageBuild, cfg)}, func() (any, error) {
		name := spanBuildBravyi
		switch {
		case cfg.Workload != "":
			name = spanFrontend
		case cfg.Strategy == core.StrategyStitch:
			name = spanBuildStitch
		}
		var b *core.BuildArtifact
		var err error
		root.do(name, func() { b, err = core.BuildStage(ctx, cfg) })
		if err == nil {
			tp.layer.add(func(l *layerCounts) { l.gates += int64(len(b.Factory.Circuit.Gates)) })
		}
		return b, err
	})
	if err != nil {
		return nil, err
	}
	b := bv.(*core.BuildArtifact)

	place := func() (any, error) {
		name := spanPlaceOther
		switch cfg.Strategy {
		case core.StrategyForceDirected:
			name = spanPlaceFD
		case core.StrategyGraphPartition:
			name = spanPlaceGP
		}
		var p *core.PlaceArtifact
		var err error
		root.do(name, func() { p, err = core.PlaceStage(ctx, cfg, b) })
		tp.layer.add(func(l *layerCounts) { l.placeCalls++ })
		return p, err
	}
	var pv any
	if cfg.Strategy == core.StrategyStitch {
		pv, err = place()
	} else {
		pv, err = tp.stages.Do(stageKey{stage: core.StagePlace, key: store.StageKeyOf(core.StagePlace, cfg), recordPaths: cfg.RecordPaths}, place)
	}
	if err != nil {
		return nil, err
	}
	p := pv.(*core.PlaceArtifact)

	sim := p.Sim
	if sim == nil {
		simulate := func() (any, error) {
			var r *mesh.Result
			var err error
			root.do(spanSim, func() { r, err = core.SimStage(ctx, cfg, b, p) })
			if err == nil {
				tp.layer.add(func(l *layerCounts) {
					l.simCalls++
					l.simCycles += int64(r.Latency)
					l.simStalls += int64(r.Stalls)
				})
			}
			return r, err
		}
		var sv any
		if store.StageCacheable(core.StageSim, cfg) {
			sv, err = tp.stages.Do(stageKey{stage: core.StageSim, key: store.StageKeyOf(core.StageSim, cfg)}, simulate)
		} else {
			sv, err = simulate()
		}
		if err != nil {
			return nil, err
		}
		sim = sv.(*mesh.Result)
	}
	var rep *core.Report
	root.do(spanAssemble, func() { rep = core.Assemble(cfg, b, p, sim) })
	return rep, nil
}

// reportDigest is a canonical fingerprint of a report's outcome: every
// scalar result plus the encoded placement and simulation artifacts
// (per-gate start and end cycles). Config is left out on purpose —
// traced passes set throughput-only knobs the results never depend on.
func reportDigest(r *core.Report) [32]byte {
	h := sha256.New()
	var buf []byte
	buf = append(buf, r.Strategy...)
	for _, v := range []int{r.Latency, r.Area, r.CriticalLatency, r.PermLatency, r.Stalls} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Volume))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.CriticalVolume))
	h.Write(buf)
	h.Write(core.EncodePlaceArtifact(&core.PlaceArtifact{Placement: r.Placement}))
	h.Write(core.EncodeSimArtifact(r.Sim))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// checkReport applies the per-point output checks every simulated point
// must pass: the simulated latency respects the dependency bound, and
// the volume is latency times area.
func checkReport(r *core.Report) error {
	if r == nil {
		return fmt.Errorf("missing report")
	}
	if r.Latency <= 0 || r.Area <= 0 {
		return fmt.Errorf("%s: non-positive latency %d or area %d", r.Strategy, r.Latency, r.Area)
	}
	if r.Latency < r.CriticalLatency {
		return fmt.Errorf("%s: latency %d below critical latency %d", r.Strategy, r.Latency, r.CriticalLatency)
	}
	if r.Volume != float64(r.Latency)*float64(r.Area) {
		return fmt.Errorf("%s: volume %g != latency %d x area %d", r.Strategy, r.Volume, r.Latency, r.Area)
	}
	return nil
}

// checkOverlaps re-simulates a report's mapped circuit with path
// recording on and checks the braid invariant (no two braids share a
// channel cell at once) and that the recorded run reproduces the
// report's latency.
func checkOverlaps(r *core.Report) error {
	mcfg := core.MeshConfigOf(r.Config)
	mcfg.RecordPaths = true
	res, err := mesh.Simulate(r.Factory.Circuit, r.Placement, mcfg)
	if err != nil {
		return fmt.Errorf("%s: re-simulation: %w", r.Strategy, err)
	}
	if err := res.CheckNoOverlaps(); err != nil {
		return fmt.Errorf("%s: %w", r.Strategy, err)
	}
	if res.Latency != r.Latency {
		return fmt.Errorf("%s: recorded re-simulation latency %d != reported %d", r.Strategy, res.Latency, r.Latency)
	}
	return nil
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}
