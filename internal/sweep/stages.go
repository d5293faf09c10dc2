package sweep

import (
	"context"
	"errors"
	"sync/atomic"

	"magicstate/internal/core"
	"magicstate/internal/store"
)

// The stage tier: on a final-record miss the engine runs core.Compose,
// the pipeline's one composition, with a resolver that answers each
// stage memory → disk → peer fetch → compute → persist (resolve). A
// config that shares upstream axes with earlier work — a sweep varying
// only Seed reuses every factory build; one varying only Style reuses
// factory + placement — replays the shared artifacts instead of
// recomputing them.
// The stage-equivalence harness pins every partial-reuse path
// byte-identical to core.RunContext.

// stageCacheLimit bounds the in-memory stage artifact memo. Stage
// artifacts are heavyweight (a decoded factory holds the whole
// circuit), so the limit sits far below the config memo's default; the
// durable tier backstops evictions.
const stageCacheLimit = 256

// errNotStage rejects a peer payload not framed as the wanted stage.
var errNotStage = errors.New("sweep: peer payload is not framed as the wanted stage")

// stageMemoKey identifies one stage artifact in the in-memory memo.
// recordPaths joins the key only because the place stage's memoized
// value can carry a force-directed simulation byproduct, whose
// diagnostic payload depends on RecordPaths even though the placement
// itself does not.
type stageMemoKey struct {
	stage       core.Stage
	key         store.Key
	recordPaths bool
}

// stageCounters tracks stage-tier traffic per stage, shared by every
// engine a Derive chain produces (like diskHits). Hits count artifacts
// replayed from the durable tier (disk or peer fetch); computes count
// stage executions. In-memory stage reuse surfaces as neither — same as
// the config memo.
type stageCounters struct {
	hits, computes [core.StageSim + 1]atomic.Int64
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
// memory → disk → peer fetch → compute, persisting what it computes.
// Points sharing a stage share its flight, which computes on the
// flight's own context: one point's cancellation never fails another
// point still waiting for the artifact. A config whose stage artifact is not cacheable (a
// paths-recording simulation: the durable artifact drops the
// diagnostics it exists to collect) always computes. A fresh force-directed placement carries the simulation of
// its winner; that is persisted under the sim stage's key too, so a
// future placement replay skips the resimulation as well.
func resolve[T any](e *Engine, st core.Stage, encode func(T) []byte, decode func([]byte) (T, error)) core.Resolve[T] {
	// framed decodes a peer's payload, which must be framed as st's.
	framed := func(payload []byte) (T, error) {
		if got, body, ok := store.StagePayload(payload); ok && got == st {
			return decode(body)
		}
		var zero T
		return zero, errNotStage
	}
	return func(ctx context.Context, cfg core.Config, compute func(context.Context) (T, error)) (T, error) {
		if !store.StageCacheable(st, cfg) {
			v, err := compute(ctx)
			if err == nil {
				e.stage.computes[st].Add(1)
			}
			return v, err
		}
		k := stageMemoKey{stage: st, key: store.StageKeyOf(st, cfg), recordPaths: st == core.StagePlace && cfg.RecordPaths}
		v, err := e.stageCache.DoContext(ctx, k, func(ctx context.Context) (any, error) {
			if e.store != nil {
				if body, ok := e.store.GetStage(st, cfg); ok {
					if v, derr := decode(body); derr == nil {
						e.stage.hits[st].Add(1)
						return v, nil
					}
				} else if v, ok := fetchPeer(ctx, e, k.key, framed); ok {
					e.stage.hits[st].Add(1)
					return v, nil
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
