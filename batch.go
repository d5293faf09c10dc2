package magicstate

import (
	"context"

	"magicstate/internal/core"
	"magicstate/internal/mesh"
	"magicstate/internal/sweep"
)

// BatchPoint is one grid point of a batch optimization: a factory spec
// plus the per-point options Optimize would take. The zero-value Options
// picks the same defaults as Optimize (hierarchical stitching for
// multi-level factories, the linear mapping otherwise).
type BatchPoint struct {
	// Spec is the factory to build, map and simulate.
	Spec FactorySpec
	// Opts carries the per-point options Optimize would take.
	Opts Options
}

// BatchOptions tunes batch execution as a whole.
type BatchOptions struct {
	// Parallelism bounds the worker pool (<= 0 means one worker per CPU;
	// 1 evaluates points serially). Every pipeline stage is
	// deterministic per point, so the setting changes wall-clock time
	// only, never results.
	Parallelism int
	// Progress, when set, observes completion: it is called once per
	// finished point with the running done count and the batch total,
	// serialized by the engine.
	Progress func(done, total int)
	// Context cancels the batch (nil means Background). It reaches each
	// point's pipeline stages: a cancel skips the points not yet
	// started and stops a point in flight at its next stage boundary.
	Context context.Context
	// Checkpoint, when non-empty, backs the batch with a durable result
	// store in that directory (created or crash-recovered on open):
	// points computed by any earlier run against the same directory are
	// served from disk, and points this batch computes are persisted for
	// the next one. A killed sweep restarted with the same Checkpoint
	// therefore recomputes only what it had not yet finished. One writer
	// per directory at a time: a second concurrent open of the same
	// directory in this process fails, and concurrent writers from
	// different processes are the caller's to prevent. Callers issuing
	// many batches should hold one Batcher instead of paying the store
	// open/close per call.
	Checkpoint string
}

// OptimizeBatch builds, maps and simulates every point of a sweep grid
// on a concurrent worker pool, returning results in input order —
// results[i] answers points[i]. Identical points are evaluated once and
// share a result. The first failing point (lowest index) aborts the
// batch, matching what a serial loop over Optimize would report.
//
// With BatchOptions.Checkpoint set, the batch additionally reads and
// writes a durable result store, so repeated points are computed once
// across processes, not just within one (see Batcher).
//
// OptimizeBatch is how sweep-style workloads — the paper's capacity x
// strategy evaluation grids, parameter studies, seed ensembles — scale
// with cores without the caller managing goroutines:
//
//	points := []magicstate.BatchPoint{
//		{Spec: magicstate.FactorySpec{Capacity: 16, Levels: 2, Reuse: true}},
//		{Spec: magicstate.FactorySpec{Capacity: 36, Levels: 2, Reuse: true}},
//	}
//	results, err := magicstate.OptimizeBatch(points, magicstate.BatchOptions{})
func OptimizeBatch(points []BatchPoint, opts BatchOptions) ([]*Result, error) {
	b, err := NewBatcher(BatcherOptions{Parallelism: opts.Parallelism, Checkpoint: opts.Checkpoint})
	if err != nil {
		return nil, err
	}
	return b.batchOnce(points, opts)
}

// batchOnce runs one batch on b, then closes b. A failed close — the
// checkpoint store's final sync or close — fails a batch that otherwise
// succeeded, since its points may not have reached the disk.
func (b *Batcher) batchOnce(points []BatchPoint, opts BatchOptions) ([]*Result, error) {
	res, err := b.OptimizeBatch(points, opts)
	if cerr := b.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// optimizeOn is Optimize routed through a sweep engine's memo cache.
func optimizeOn(eng *sweep.Engine, spec FactorySpec, opts Options) (*Result, error) {
	return optimizeOnContext(context.Background(), eng, spec, opts)
}

// optimizeOnContext is optimizeOn with cooperative cancellation: ctx is
// checked at pipeline stage boundaries, so abandoned work stops costing
// compute. Failures are never memoized (see sweep.RunOneContext).
func optimizeOnContext(ctx context.Context, eng *sweep.Engine, spec FactorySpec, opts Options) (*Result, error) {
	cfg, err := optimizeConfig(spec, opts)
	if err != nil {
		return nil, err
	}
	rep, err := eng.RunOneContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return resultFromReport(rep, opts)
}

// optimizeConfig lowers a (spec, opts) pair to the core pipeline config
// Optimize runs.
func optimizeConfig(spec FactorySpec, opts Options) (core.Config, error) {
	if opts.Workload != "" {
		// A frontend workload fixes the circuit itself; the factory spec
		// is not consulted (and need not validate). The stitching default
		// never applies — it requires the built-in factory's rounds.
		strat := core.Strategy(opts.Strategy)
		if !opts.strategySet && opts.Strategy == RandomMapping {
			strat = core.StrategyLinear
		}
		return core.Config{
			NoBarriers:     opts.DisableBarriers,
			Strategy:       strat,
			Seed:           opts.Seed,
			Style:          mesh.InteractionStyle(opts.Style),
			Distance:       opts.Distance,
			RecordPaths:    opts.Trace,
			Workload:       opts.Workload,
			WorkloadSource: opts.WorkloadSource,
			Defects:        opts.Defects,
		}, nil
	}
	p, err := spec.params()
	if err != nil {
		return core.Config{}, err
	}
	strat := core.Strategy(opts.Strategy)
	if !opts.strategySet && opts.Strategy == RandomMapping {
		if spec.Levels >= 2 {
			strat = core.StrategyStitch
		} else {
			strat = core.StrategyLinear
		}
	}
	return core.Config{
		K:           p.K,
		Levels:      p.Levels,
		Reuse:       spec.Reuse,
		NoBarriers:  opts.DisableBarriers,
		Strategy:    strat,
		Seed:        opts.Seed,
		Style:       mesh.InteractionStyle(opts.Style),
		Distance:    opts.Distance,
		RecordPaths: opts.Trace,
		Defects:     opts.Defects,
	}, nil
}
