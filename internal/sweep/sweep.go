package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"magicstate/internal/core"
	"magicstate/internal/store"
	"magicstate/internal/sweep/memo"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds pool concurrency; <= 0 means runtime.GOMAXPROCS(0).
	// 1 reproduces serial execution exactly.
	Workers int
	// Progress, when set, observes completion: it is called once per
	// point as the point finishes — successfully, with an error, or
	// skipped after an earlier failure — with the running done count
	// and the batch total. A successful sweep always reaches done ==
	// total; a failing sweep may stop short (the serial path returns at
	// the first error). Calls are serialized by the engine; the
	// callback itself need not be safe for concurrent use.
	Progress func(done, total int)
	// Store, when set, adds a durable cache tier beneath the in-memory
	// memo: RunOne consults memory first, then the store, and persists
	// freshly computed cacheable results. The engine never closes the
	// store — its owner does.
	Store *store.Store
}

// Engine is a reusable batch executor. An Engine is safe for concurrent
// use; its memo cache persists across Run calls, so successive artifacts
// in one process share grid points.
type Engine struct {
	workers    int
	progress   func(done, total int)
	progMu     sync.Mutex
	cache      *memo.Cache
	stageCache *memo.Cache    // stage artifacts (see stages.go)
	stage      *stageCounters // stage-tier traffic, shared via Derive
	store      *store.Store
	putFails   *atomic.Int64 // failed durable writes, shared via Derive
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:    w,
		progress:   opts.Progress,
		cache:      memo.New(0),
		stageCache: memo.New(stageCacheLimit),
		stage:      new(stageCounters),
		store:      opts.Store,
		putFails:   new(atomic.Int64),
	}
}

// Derive returns an engine that shares e's memo caches, result store
// and every counter but runs with its own worker width and progress
// callback; opts.Store is ignored. It is how one process serves many
// differently-shaped callers from a single cache tier: the msfud
// service derives a width-capped engine per request (opts.Workers above
// e's width is clamped down to it, so a request can narrow the shared
// pool but never widen it).
func (e *Engine) Derive(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 || w > e.workers {
		w = e.workers
	}
	return &Engine{
		workers:    w,
		progress:   opts.Progress,
		cache:      e.cache,
		stageCache: e.stageCache,
		stage:      e.stage,
		store:      e.store,
		putFails:   e.putFails,
	}
}

// CacheStats reports memo cache hits and misses so far (shared across
// derived engines). Hits include calls that joined an unfinished flight.
func (e *Engine) CacheStats() (hits, misses int64) { return e.cache.Stats() }

// FlightStats reports calls that joined another caller's unfinished
// point flight and the flights not yet finished (see memo.Cache.Flights).
func (e *Engine) FlightStats() (shared int64, inFlight int) { return e.cache.Flights() }

// DiskHits reports how many points were served from the durable tier
// instead of being recomputed, across this engine and every engine
// sharing its cache via Derive.
func (e *Engine) DiskHits() int64 { return e.stage.hits[core.StageReport].Load() }

// PutFailures reports how many durable writes (stage artifacts, reports
// included) failed, across this engine and every engine sharing its
// cache via Derive. Persistence is an optimization, not a correctness
// step: a failed write — a full disk, say — never fails the point,
// which keeps its result, but it is counted here instead of dropped.
func (e *Engine) PutFailures() int64 { return e.putFails.Load() }

// persisted counts err, the outcome of one durable write, if it failed.
func (e *Engine) persisted(err error) {
	if err != nil {
		e.putFails.Add(1)
	}
}

// Run executes every Config point and returns the reports in input
// order. Identical points are computed once (reports are shared — treat
// them as read-only). On failure Run stops dispatching further points
// and returns the lowest-indexed error among points that ran.
func (e *Engine) Run(ctx context.Context, cfgs []core.Config) ([]*core.Report, error) {
	return Map(ctx, e, cfgs, func(_ int, cfg core.Config) (*core.Report, error) {
		return e.RunOne(cfg)
	})
}

// RunOne executes a single Config through the engine's cache tier:
// the in-memory memo answers repeats within the process, the durable
// store (when the engine has one) answers repeats across processes, and
// only a miss on both computes — persisting the fresh result so
// no process ever computes this point again. It is how grid stages that
// need per-point error context (or mix pipeline runs with other work)
// still share the cache: call RunOne from inside a Map function instead
// of core.Run.
//
// An engine with a store answers a cacheable point (one whose report
// stage store.StageCacheable admits) with the decode of its report
// artifact from every tier, a fresh computation included: the report's
// Factory, Placement and Sim are nil. A store-less engine, and any
// point that records paths, returns the full report.
func (e *Engine) RunOne(cfg core.Config) (*core.Report, error) {
	return e.RunOneContext(context.Background(), cfg)
}

// RunOneContext is RunOne with cooperative cancellation. Concurrent
// callers for one point share a memo flight (see internal/sweep/memo):
// each waits on its own ctx and may leave early, and the last one out
// cancels the flight, which core.Compose notices at its next stage
// boundary. So a caller that goes away stops costing compute without
// failing anyone who still waits. Errors are never cached. The gate of
// ctx (WithGate) is called only after every cache tier has missed.
func (e *Engine) RunOneContext(ctx context.Context, cfg core.Config) (*core.Report, error) {
	v, err := e.cache.DoContext(ctx, cfg, func(ctx context.Context) (any, error) {
		if rep, ok := e.lookup(cfg); ok {
			return rep, nil
		}
		if gate, ok := ctx.Value(gateKey{}).(Gate); ok {
			release, err := gate(ctx)
			if err != nil {
				return nil, err
			}
			defer release()
		}
		// A full miss computes through the stage tier: core.Compose
		// with each stage resolved memory → disk → compute (see
		// stages.go), so a point sharing upstream axes with earlier work
		// replays the shared artifacts instead of recomputing them.
		rep, err := core.Compose(ctx, cfg, core.StageResolver{
			Build: resolve(e, core.StageBuild, core.EncodeBuildArtifact, core.DecodeBuildArtifact),
			Place: resolve(e, core.StagePlace, core.EncodePlaceArtifact, core.DecodePlaceArtifact),
			Sim:   resolve(e, core.StageSim, core.EncodeSimArtifact, core.DecodeSimArtifact),
		})
		if err != nil {
			return nil, err
		}
		// With a store, a cacheable point is memoized as the decode of
		// the report artifact it persists, so memo and disk answers
		// share one shape and the memo holds no factory, placement or
		// simulation.
		if e.store != nil && store.StageCacheable(core.StageReport, cfg) {
			body := core.EncodeReportArtifact(rep)
			e.persisted(e.store.PutStage(core.StageReport, cfg, body))
			if rep, err = core.DecodeReportArtifact(cfg, body); err != nil {
				return nil, err
			}
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Report), nil
}

// Gate admits one pipeline run: it blocks until the run may start and
// returns the release func to call when it is done, or an error that
// fails the point for every caller sharing its flight.
type Gate func(ctx context.Context) (release func(), err error)

// gateKey is the context key WithGate files a Gate under.
type gateKey struct{}

// WithGate returns a copy of ctx carrying gate, which RunOneContext
// calls once per point flight started under ctx, just before running
// the pipeline — so a service charges compute, and only compute, to
// its admission budget.
func WithGate(ctx context.Context, gate Gate) context.Context {
	return context.WithValue(ctx, gateKey{}, gate)
}

// PeekOne answers cfg from the cache tier without ever computing (or
// waiting on an in-flight computation): a completed in-memory memo
// entry first, the durable store second. It is the admission-free fast
// path for overloaded services — a point already paid for is served
// even when no compute budget remains.
func (e *Engine) PeekOne(cfg core.Config) (*core.Report, bool) {
	if v, ok := e.cache.Peek(cfg); ok {
		return v.(*core.Report), true
	}
	return e.lookup(cfg)
}

// lookup answers cfg from its report artifact in the durable store,
// when the engine has one, and counts the disk hit. A record that does
// not decode is a miss: the caller recomputes.
func (e *Engine) lookup(cfg core.Config) (*core.Report, bool) {
	if e.store == nil {
		return nil, false
	}
	body, ok := e.store.GetStage(core.StageReport, cfg)
	if !ok {
		return nil, false
	}
	rep, err := core.DecodeReportArtifact(cfg, body)
	if err != nil {
		return nil, false
	}
	e.stage.hits[core.StageReport].Add(1)
	return rep, true
}

// tick reports one completed point.
func (e *Engine) tick(done *int, total int) {
	if e.progress == nil {
		return
	}
	e.progMu.Lock()
	*done++
	e.progress(*done, total)
	e.progMu.Unlock()
}

// Map runs fn over items on e's worker pool and returns the results in
// input order. It is the engine's generic entry point for grid stages
// that are not plain core.Config points (Monte-Carlo yield runs, stitch
// hop sweeps, protocol provisioning, the planner's candidate scan). fn
// must be safe for concurrent invocation and deterministic per item if
// callers rely on reproducible output. On failure Map stops dispatching
// further items and returns the lowest-indexed error among items that
// ran (a serial run reports exactly the first failure).
func Map[T, R any](ctx context.Context, e *Engine, items []T, fn func(int, T) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}

	workers := e.workers
	if workers > len(items) {
		workers = len(items)
	}
	var done int

	if workers <= 1 {
		// Serial fast path: identical control flow to the loops this
		// engine replaced, including stopping at the first error.
		for i, it := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := fn(i, it)
			if err != nil {
				return nil, err
			}
			results[i] = r
			e.tick(&done, len(items))
		}
		return results, nil
	}

	errs := make([]error, len(items))
	idx := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				switch {
				case failed.Load():
					// Another point already failed; don't burn the rest
					// of the grid's wall-clock on results that will be
					// discarded.
					errs[i] = errSkipped
				case ctx.Err() != nil:
					errs[i] = ctx.Err()
					failed.Store(true)
				default:
					r, err := fn(i, items[i])
					if err != nil {
						errs[i] = err
						failed.Store(true)
					} else {
						results[i] = r
					}
				}
				e.tick(&done, len(items))
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Report the lowest-indexed point that actually ran and failed
	// (points skipped after the first failure never produced an error
	// of their own).
	for _, err := range errs {
		if err != nil && err != errSkipped {
			return nil, err
		}
	}
	return results, nil
}

// errSkipped marks grid points abandoned because an earlier point
// already failed; it is never returned to callers.
var errSkipped = errors.New("sweep: point skipped after earlier failure")
