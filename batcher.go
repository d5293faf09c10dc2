package magicstate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"magicstate/internal/core"
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

	// The three hooks below are the batcher's cluster surface, used by
	// cmd/msfud to stitch batchers on different machines into one
	// sharded cache. They deal in raw keys (the 32-byte canonical
	// config address, see PointKey) and raw record payloads, so no
	// internal types leak into the public API. All are optional and all
	// are best-effort: a hook returning ok=false simply means "proceed
	// locally".

	// RemoteFetch, when set with a Checkpoint, is consulted on a
	// checkpoint-store miss before computing: it may return the record
	// payload for a key from elsewhere (a cluster peer), for a point's
	// final record or for one of its stage artifacts. Returned payloads
	// must decode as stored records of the wanted kind — final records
	// strictly, with no unknown fields — or they are treated as misses
	// and never admitted.
	RemoteFetch func(ctx context.Context, key [32]byte) ([]byte, bool)
	// RemoteEval, when set, is offered each cacheable point that missed
	// every cache tier before it is computed locally: given the point's
	// key and its config JSON, it may return the record payload computed
	// by the point's owning node. The payload is checked like a
	// RemoteFetch final record before it is served or stored.
	RemoteEval func(ctx context.Context, key [32]byte, cfgJSON []byte) ([]byte, bool)
	// OnStore, when set with a Checkpoint, observes every record freshly
	// persisted to the checkpoint store (replication feed). It is called
	// outside store locks and must treat the payload as read-only.
	OnStore func(key [32]byte, payload []byte)
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
		if opts.OnStore != nil {
			onStore := opts.OnStore
			st.SetOnPut(func(k store.Key, payload []byte) {
				onStore(k, payload)
			})
		}
	}
	var peers sweep.Peers
	if opts.RemoteFetch != nil || opts.RemoteEval != nil {
		peers = peerHooks{fetch: opts.RemoteFetch, eval: opts.RemoteEval}
	}
	return &Batcher{
		eng: sweep.New(sweep.Options{Workers: opts.Parallelism, Store: st, Peers: peers}),
		st:  st,
	}, nil
}

// peerHooks adapts the public RemoteFetch/RemoteEval hooks to the
// engine's peer tier; a nil hook answers "not available".
type peerHooks struct {
	fetch func(ctx context.Context, key [32]byte) ([]byte, bool)
	eval  func(ctx context.Context, key [32]byte, cfgJSON []byte) ([]byte, bool)
}

func (p peerHooks) Fetch(ctx context.Context, k store.Key) ([]byte, bool) {
	if p.fetch == nil {
		return nil, false
	}
	return p.fetch(ctx, k)
}

func (p peerHooks) Evaluate(ctx context.Context, k store.Key, cfgJSON []byte) ([]byte, bool) {
	if p.eval == nil {
		return nil, false
	}
	return p.eval(ctx, k, cfgJSON)
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

// PointKey returns the canonical content address of a (spec, opts)
// point — the same key the durable store files results under — as
// lowercase hex. Two points share a key exactly when they lower to the
// same pipeline configuration — the identity the cluster fabric routes
// points by. The error mirrors what Optimize would reject (invalid
// capacity, unknown names).
func PointKey(spec FactorySpec, opts Options) (string, error) {
	cfg, err := optimizeConfig(spec, opts)
	if err != nil {
		return "", err
	}
	return store.KeyOf(cfg).String(), nil
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
	// of recomputed (always zero without a checkpoint). Points whose
	// final record the RemoteFetch hook pulled from a peer into the
	// local store count here too — and are broken out in PeerFetchHits.
	DiskHits int64
	// PeerFetchHits counts points served by the RemoteFetch hook (a
	// peer's final record, fetched and admitted locally), a subset of
	// DiskHits. Stage artifacts fetched from peers during a local
	// compute count in the Stage*Hits fields instead.
	PeerFetchHits int64
	// RemoteEvalHits counts points evaluated by their owning peer via
	// the RemoteEval hook instead of computed here.
	RemoteEvalHits int64
	// StoredRecords is the checkpoint store's live final-record count —
	// one per pipeline point answered.
	StoredRecords int
	// StoredBytes is the checkpoint store's record log size.
	StoredBytes int64
	// CheckpointDir is the store directory ("" when memory-only).
	CheckpointDir string
	// Stage-tier traffic: on a final-record miss the pipeline resolves
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
	// StageRecords is the checkpoint store's live stage-artifact count,
	// held apart from StoredRecords.
	StageRecords int
}

// Stats snapshots the batcher's cache counters.
func (b *Batcher) Stats() CacheStats {
	hits, misses := b.eng.CacheStats()
	shared, inFlight := b.eng.FlightStats()
	ss := b.eng.StageStats()
	cs := CacheStats{
		MemoryHits:     hits,
		MemoryMisses:   misses,
		SharedFlights:  shared,
		InFlight:       inFlight,
		DiskHits:       b.eng.DiskHits(),
		PeerFetchHits:  b.eng.PeerFetchHits(),
		RemoteEvalHits: b.eng.RemoteEvalHits(),

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

// RecordGet returns the raw record payload stored locally under key,
// if any. It is the serving side of a peer's RemoteFetch: strictly
// local — it never computes, never consults this batcher's own remote
// hooks — so two nodes asking each other can never recurse. The
// returned slice must be treated as read-only.
func (b *Batcher) RecordGet(key [32]byte) ([]byte, bool) {
	if b.st == nil {
		return nil, false
	}
	return b.st.Get(key)
}

// RecordPut admits a record payload computed elsewhere into the local
// checkpoint store, after verifying it decodes as a stored record — a
// final result record, or a stage-framed pipeline artifact (the staged
// pipeline replicates its intermediate artifacts over the same feed).
// Callers (the replication receiver) have already byte-verified the
// payload's digest, and this check makes even a digest-valid garbage
// payload inadmissible. A batcher without a checkpoint accepts and
// drops the record.
func (b *Batcher) RecordPut(key [32]byte, payload []byte) error {
	if st, body, isStage := store.StagePayload(payload); isStage {
		if err := core.ValidateStageArtifact(st, body); err != nil {
			return fmt.Errorf("magicstate: stage %s payload does not decode: %w", st, err)
		}
	} else if _, err := store.DecodeRecord(payload); err != nil {
		return fmt.Errorf("magicstate: %w", err)
	}
	if b.st == nil {
		return nil
	}
	return b.st.Put(key, payload)
}

// EvalConfigJSON evaluates a full pipeline configuration delivered as
// JSON — the serving side of a peer's RemoteEval — through this
// batcher's local cache tier, and returns the point's key and record
// payload. The config must decode strictly (unknown fields are version
// skew between nodes, refused rather than misread) and be cacheable
// (trace-carrying configs have no record form). The evaluation itself
// is local: the caller passes a context the fabric has marked
// non-forwardable, so an owner disagreement between nodes degrades to
// local compute, never to a forwarding loop.
func (b *Batcher) EvalConfigJSON(ctx context.Context, cfgJSON []byte) (key [32]byte, payload []byte, err error) {
	var cfg core.Config
	dec := json.NewDecoder(bytes.NewReader(cfgJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return key, nil, fmt.Errorf("magicstate: config does not decode: %w", err)
	}
	if !store.Cacheable(cfg) {
		return key, nil, fmt.Errorf("magicstate: config is not cacheable; evaluate it locally")
	}
	rep, err := b.eng.RunOneContext(ctx, cfg)
	if err != nil {
		return key, nil, err
	}
	payload, err = json.Marshal(store.RecordOf(rep))
	if err != nil {
		return key, nil, err
	}
	return store.KeyOf(cfg), payload, nil
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
