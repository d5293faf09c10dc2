package magicstate

import (
	"context"
	"fmt"
	"path/filepath"

	"magicstate/internal/store"
	"magicstate/internal/sweep"
)

// BatcherOptions configures a Batcher.
type BatcherOptions struct {
	// Parallelism is the widest worker pool the batcher will ever run
	// (<= 0 means one worker per CPU). Individual batches can narrow it
	// per call via BatchOptions.Parallelism but never widen it.
	Parallelism int
	// Checkpoint, when non-empty, is a directory holding a durable
	// result store: every computed point is persisted there, and future
	// batches — in this process or any later one — serve repeated points
	// from disk instead of recomputing. The directory is created if
	// missing; a store left behind by a killed process is recovered to
	// its longest valid prefix on open.
	Checkpoint string
	// StoreFaults is a test-only fault-injection spec for the checkpoint
	// store, in the grammar of store.ParseFaultPlan (e.g.
	// "failwrite=7,shortwrite=19,stall=10:1ms"). It exists so soak
	// harnesses can exercise store failure recovery deliberately; leave
	// it empty in production. Ignored without a Checkpoint.
	StoreFaults string
}

// Batcher is a reusable optimization runner that carries one cache tier
// — an in-memory memo and, with a checkpoint directory, a durable
// on-disk store — across many Optimize and OptimizeBatch calls. The
// one-shot package functions rebuild that state per call; a Batcher is
// for the long-running callers the ROADMAP aims at (the msfud service
// holds exactly one), where the same (capacity, level, strategy, style,
// seed) points recur across requests and should be computed once, ever.
//
// A Batcher is safe for concurrent use. Close it when done; Close
// flushes and releases the checkpoint store (a memory-only Batcher's
// Close is a no-op).
type Batcher struct {
	eng *sweep.Engine
	st  *store.Store
}

// NewBatcher builds a Batcher. An empty Checkpoint yields a memory-only
// cache; a non-empty one opens (creating or crash-recovering as needed)
// the durable store under that directory.
func NewBatcher(opts BatcherOptions) (*Batcher, error) {
	var st *store.Store
	if opts.Checkpoint != "" {
		var err error
		if opts.StoreFaults != "" {
			plan, perr := store.ParseFaultPlan(opts.StoreFaults)
			if perr != nil {
				return nil, perr
			}
			st, err = store.OpenWithFaults(opts.Checkpoint, plan)
		} else {
			st, err = store.Open(opts.Checkpoint)
		}
		if err != nil {
			return nil, err
		}
	}
	return &Batcher{
		eng: sweep.New(sweep.Options{Workers: opts.Parallelism, Store: st}),
		st:  st,
	}, nil
}

// Optimize is Optimize routed through the batcher's cache tier: a point
// already computed by this batcher (or stored by any earlier process
// sharing the checkpoint directory) is served without running the
// pipeline. Trace-carrying runs (Options.Trace) always compute — their
// result includes simulation artifacts the store does not keep.
func (b *Batcher) Optimize(spec FactorySpec, opts Options) (*Result, error) {
	return optimizeOn(b.eng, spec, opts)
}

// OptimizeContext is Optimize with cooperative cancellation. Concurrent
// calls for one point share a single computation; a caller whose ctx
// ends — a disconnected HTTP client, an expired request deadline —
// returns ctx.Err() at once, and the computation stops at its next
// pipeline stage boundary once no caller waits for it any more. Failed
// computations are never cached; the next request for the point
// computes afresh.
func (b *Batcher) OptimizeContext(ctx context.Context, spec FactorySpec, opts Options) (*Result, error) {
	return optimizeOnContext(ctx, b.eng, spec, opts)
}

// Lookup answers a point from the batcher's cache tier without ever
// computing or blocking on an in-flight computation: a completed
// in-memory result first, the durable store second. The boolean reports
// whether the point was cached. Trace-carrying options (Options.Trace)
// are never served from the durable tier — the stored scalars cannot
// rebuild a trace — but a completed in-memory entry can satisfy them.
func (b *Batcher) Lookup(spec FactorySpec, opts Options) (*Result, bool) {
	cfg, err := optimizeConfig(spec, opts)
	if err != nil {
		return nil, false
	}
	rep, ok := b.eng.PeekOne(cfg)
	if !ok {
		return nil, false
	}
	res, err := resultFromReport(rep, opts)
	if err != nil {
		return nil, false
	}
	return res, true
}

// OptimizeBatch evaluates points like the package-level OptimizeBatch,
// but on the batcher's shared cache tier. opts.Parallelism below the
// batcher's width narrows the pool for this call; zero or anything
// wider uses the batcher's width. The durable tier is fixed at
// construction: opts.Checkpoint must be empty or equal to the
// batcher's own checkpoint directory — naming a different store here
// is an error, not a silent no-op.
func (b *Batcher) OptimizeBatch(points []BatchPoint, opts BatchOptions) ([]*Result, error) {
	if opts.Checkpoint != "" {
		open := ""
		if b.st != nil {
			open = b.st.Dir()
		}
		if !sameDir(opts.Checkpoint, open) {
			return nil, fmt.Errorf("magicstate: batcher checkpoint is %q, set at construction; cannot switch to %q per batch", open, opts.Checkpoint)
		}
	}
	eng := b.eng.Derive(sweep.Options{Workers: opts.Parallelism, Progress: opts.Progress})
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return sweep.Map(ctx, eng, points, func(_ int, pt BatchPoint) (*Result, error) {
		// The batch context reaches each point's pipeline stages, not
		// just the gaps between points: a cancelled batch stops
		// mid-point at the next stage boundary.
		return optimizeOnContext(ctx, eng, pt.Spec, pt.Opts)
	})
}

// CacheStats reports how a Batcher's cache tier has performed.
type CacheStats struct {
	// MemoryHits and MemoryMisses count lookups in the in-process memo.
	// A Lookup answered from the memo is a hit; one that is not moves
	// neither counter.
	MemoryHits, MemoryMisses int64
	// SharedFlights counts the hits that joined another caller's
	// unfinished computation of the same point.
	SharedFlights int64
	// InFlight is the number of point computations not yet finished.
	InFlight int
	// DiskHits counts points served from the checkpoint store instead
	// of recomputed (always zero without a checkpoint).
	DiskHits int64
	// StoredRecords is the checkpoint store's live report-record count —
	// one per pipeline point answered.
	StoredRecords int
	// StoredBytes is the checkpoint store's record log size.
	StoredBytes int64
	// CheckpointDir is the store directory ("" when memory-only).
	CheckpointDir string
	// Stage-tier traffic: on a report miss the pipeline resolves
	// each stage (factory build, placement, simulation) through its own
	// cache tier. Hits count stage artifacts replayed from the durable
	// store instead of recomputed; Computes count actual stage
	// executions. A sweep that varies only downstream axes shows build
	// (and place) hits where a cold run shows computes.
	StageBuildHits, StageBuildComputes int64
	// StagePlaceHits and StagePlaceComputes are the placement stage's
	// replayed/executed split.
	StagePlaceHits, StagePlaceComputes int64
	// StageSimHits and StageSimComputes are the simulation stage's
	// replayed/executed split.
	StageSimHits, StageSimComputes int64
	// StageRecords is the checkpoint store's live count of upstream
	// stage artifacts, held apart from StoredRecords.
	StageRecords int
}

// Stats snapshots the batcher's cache counters.
func (b *Batcher) Stats() CacheStats {
	hits, misses := b.eng.CacheStats()
	shared, inFlight := b.eng.FlightStats()
	ss := b.eng.StageStats()
	cs := CacheStats{
		MemoryHits:    hits,
		MemoryMisses:  misses,
		SharedFlights: shared,
		InFlight:      inFlight,
		DiskHits:      b.eng.DiskHits(),

		StageBuildHits: ss.BuildHits, StageBuildComputes: ss.BuildComputes,
		StagePlaceHits: ss.PlaceHits, StagePlaceComputes: ss.PlaceComputes,
		StageSimHits: ss.SimHits, StageSimComputes: ss.SimComputes,
	}
	if b.st != nil {
		st := b.st.Stats()
		cs.StoredRecords = st.Records
		cs.StoredBytes = st.LogBytes
		cs.CheckpointDir = b.st.Dir()
		cs.StageRecords = st.StageRecords
	}
	return cs
}

// sameDir reports whether two directory spellings name the same
// location ("ck", "./ck" and the absolute form are all one directory,
// matching how the store's own open-directory guard normalizes paths).
func sameDir(a, b string) bool {
	if a == b {
		return true
	}
	if a == "" || b == "" {
		return false
	}
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	return errA == nil && errB == nil && absA == absB
}

// Close flushes and closes the checkpoint store. It is safe to call on
// a memory-only Batcher and safe to call twice.
func (b *Batcher) Close() error {
	if b.st == nil {
		return nil
	}
	return b.st.Close()
}
