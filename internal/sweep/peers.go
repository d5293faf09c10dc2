package sweep

import (
	"context"
	"encoding/json"

	"magicstate/internal/core"
	"magicstate/internal/store"
)

// Peers is the cluster tier beneath the local store; *fabric.Fabric
// implements it. ok=false from either method means "not available —
// go on locally": the tier is best-effort and never fails a point.
type Peers interface {
	// Fetch returns the payload a peer holds under k.
	Fetch(ctx context.Context, k store.Key) ([]byte, bool)
	// Evaluate asks k's owner to compute the point whose config JSON is
	// cfgJSON, and returns its final-record payload.
	Evaluate(ctx context.Context, k store.Key, cfgJSON []byte) ([]byte, bool)
}

// lookup answers a cacheable cfg from the tiers beneath the memo, in
// order: local store, peer fetch, forwarded evaluation. Final records
// from peers decode strictly (store.DecodeRecord).
func (e *Engine) lookup(ctx context.Context, cfg core.Config) (*core.Report, bool) {
	if !store.Cacheable(cfg) {
		return nil, false
	}
	if e.store != nil {
		if rep, ok := e.store.LookupReport(cfg); ok {
			e.diskHits.Add(1)
			return rep, true
		}
	}
	if e.peers == nil {
		return nil, false
	}
	k := store.KeyOf(cfg)
	decode := func(payload []byte) (*core.Report, error) {
		r, err := store.DecodeRecord(payload)
		return r.Report(cfg), err
	}
	if rep, ok := fetchPeer(ctx, e, k, decode); ok {
		e.diskHits.Add(1)
		e.fetchHits.Add(1)
		return rep, true
	}
	if cfgJSON, err := json.Marshal(cfg); err == nil {
		if payload, ok := e.peers.Evaluate(ctx, k, cfgJSON); ok {
			if rep, ok := admit(e, k, payload, decode); ok {
				e.evalHits.Add(1)
				return rep, true
			}
		}
	}
	return nil, false
}

// fetchPeer is the peer-fetch step for final records and stage
// artifacts alike. It runs only when the engine has a store to admit
// the fetched payload to.
func fetchPeer[T any](ctx context.Context, e *Engine, k store.Key, decode func([]byte) (T, error)) (T, bool) {
	if e.peers != nil && e.store != nil {
		if payload, ok := e.peers.Fetch(ctx, k); ok {
			return admit(e, k, payload, decode)
		}
	}
	var zero T
	return zero, false
}

// admit is the one admission rule for bytes a peer produced for k: they
// are served and written to the local store only if decode accepts
// them, so a confused peer can cost a recompute but never plant a
// record. A failed write keeps the value, as for a local compute, and
// is counted in PutFailures.
func admit[T any](e *Engine, k store.Key, payload []byte, decode func([]byte) (T, error)) (T, bool) {
	v, err := decode(payload)
	if err != nil {
		var zero T
		return zero, false
	}
	if e.store != nil {
		e.persisted(e.store.Put(k, payload))
	}
	return v, true
}
