package sweep

import (
	"context"
	"sync/atomic"

	"magicstate/internal/core"
	"magicstate/internal/store"
)

// The stage tier: on a report miss the engine runs core.Compose,
// the pipeline's one composition, with a resolver that answers each
// stage memory → disk → compute → persist (resolve). A
// config that shares upstream axes with earlier work — a sweep varying
// only Seed reuses every factory build; one varying only Style reuses
// factory + placement — replays the shared artifacts instead of
// recomputing them.
// The stage-equivalence harness pins every partial-reuse path
// byte-identical to core.RunContext.

// stageCacheLimit bounds the in-memory stage artifact memo, which
// evicts by CLOCK past it. Stage artifacts are heavyweight (a decoded
// factory holds the whole circuit), while a store-backed engine's
// config memo holds record-sized entries, so this limit sits far below
// the config memo's default; the durable tier backstops evictions.
const stageCacheLimit = 256

// stageMemoKey identifies one stage artifact in the in-memory memo by
// the stage's scope (core.Stage.Scope), the same value the durable
// tier digests into its stage key, so an in-memory hit hashes nothing.
// recordPaths joins the key only because the place stage's memoized
// value can carry a force-directed simulation byproduct, whose
// diagnostic payload depends on RecordPaths even though the placement
// itself does not.
type stageMemoKey struct {
	stage       core.Stage
	scope       core.Config
	recordPaths bool
}

// stageCounters tracks stage-tier traffic per stage, shared by every
// engine a Derive chain produces. Hits count artifacts replayed from the
// durable tier (report hits are DiskHits); computes count stage
// executions. In-memory stage reuse surfaces as neither — same as the
// config memo.
type stageCounters struct {
	hits, computes [core.StageReport + 1]atomic.Int64
}

// StageStats snapshots the stage tier's counters. For each stage, Hits
// are artifacts served from the durable tier instead of recomputed and
// Computes are actual stage executions; a fully warm rerun shows zero
// computes everywhere.
type StageStats struct {
	// BuildHits and BuildComputes split the factory-build stage.
	BuildHits, BuildComputes int64
	// PlaceHits and PlaceComputes split the placement stage.
	PlaceHits, PlaceComputes int64
	// SimHits and SimComputes split the simulation stage.
	SimHits, SimComputes int64
}

// StageStats reports stage-tier traffic across this engine and every
// engine sharing its caches via Derive.
func (e *Engine) StageStats() StageStats {
	h, c := &e.stage.hits, &e.stage.computes
	return StageStats{
		BuildHits: h[core.StageBuild].Load(), BuildComputes: c[core.StageBuild].Load(),
		PlaceHits: h[core.StagePlace].Load(), PlaceComputes: c[core.StagePlace].Load(),
		SimHits: h[core.StageSim].Load(), SimComputes: c[core.StageSim].Load(),
	}
}

// resolve returns the engine's hook for stage st, whose artifacts
// persist through encode and replay through decode. The hook answers
// memory → disk → compute, persisting what it computes.
// Points sharing a stage share its flight, which computes on the
// flight's own context: one point's cancellation never fails another
// point still waiting for the artifact. A config whose stage artifact is not cacheable (a
// paths-recording simulation: the durable artifact drops the
// diagnostics it exists to collect) always computes. A fresh force-directed placement carries the simulation of
// its winner; that is persisted under the sim stage's key too, so a
// future placement replay skips the resimulation as well.
func resolve[T any](e *Engine, st core.Stage, encode func(T) []byte, decode func([]byte) (T, error)) core.Resolve[T] {
	return func(ctx context.Context, cfg core.Config, compute func(context.Context) (T, error)) (T, error) {
		if !store.StageCacheable(st, cfg) {
			v, err := compute(ctx)
			if err == nil {
				e.stage.computes[st].Add(1)
			}
			return v, err
		}
		k := stageMemoKey{stage: st, scope: st.Scope(cfg), recordPaths: st == core.StagePlace && cfg.RecordPaths}
		v, err := e.stageCache.DoContext(ctx, k, func(ctx context.Context) (any, error) {
			if e.store != nil {
				if body, ok := e.store.GetStage(st, cfg); ok {
					if v, derr := decode(body); derr == nil {
						e.stage.hits[st].Add(1)
						return v, nil
					}
				}
			}
			v, err := compute(ctx)
			if err != nil {
				return nil, err
			}
			e.stage.computes[st].Add(1)
			if e.store != nil {
				e.persisted(e.store.PutStage(st, cfg, encode(v)))
				if p, ok := any(v).(*core.PlaceArtifact); ok && p.Sim != nil {
					e.persisted(e.store.PutStage(core.StageSim, cfg, core.EncodeSimArtifact(p.Sim)))
				}
			}
			return v, nil
		})
		if err != nil {
			var zero T
			return zero, err
		}
		return v.(T), nil
	}
}
