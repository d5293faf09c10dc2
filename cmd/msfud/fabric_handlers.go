package main

// The peer-facing endpoints of a clustered msfud node. These routes are
// only registered when a fabric is configured (-peers). They are the
// serving side of internal/fabric's client calls:
//
//	GET  /v1/record/{key}   serve one store record (read-through fetch)
//	PUT  /v1/record/{key}   accept a replicated record (byte-verified)
//	POST /v1/fabric/eval    evaluate a forwarded point as its owner
//	GET  /v1/ping           liveness for the breaker prober
//	GET  /v1/cluster        aggregated /v1/stats across the cluster
//
// Every record leaving this node travels in a fabric.RecordEnvelope
// carrying its SHA-256; every record arriving is re-hashed and
// key-checked before admission. The -fault-peer plan is applied at the
// top of each record-carrying handler, so chaos tests can make this
// node drop, stall, or serve corrupted bytes on a deterministic
// schedule.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"magicstate/internal/core"
	"magicstate/internal/fabric"
	"magicstate/internal/store"
	"magicstate/internal/sweep"
)

// peerFault advances the node's peer fault plan and applies the
// stall/drop faults due for this request; it returns whether the
// response payload must be served corrupted. Drop is implemented as
// http.ErrAbortHandler — the connection dies without a response, which
// is what a partition looks like to the caller.
func (s *server) peerFault() (corrupt bool) {
	f := s.cfg.PeerFaults.Next()
	if f.Stall > 0 {
		time.Sleep(f.Stall)
	}
	if f.Drop {
		panic(http.ErrAbortHandler)
	}
	return f.Corrupt
}

// corruptPayload flips bits in a copy of the envelope's payload while
// leaving its declared digest intact — the exact failure byte
// verification exists to catch. The original payload (often the
// store's own in-memory slice) is never modified.
func corruptPayload(env fabric.RecordEnvelope) fabric.RecordEnvelope {
	p := append([]byte(nil), env.Payload...)
	for i := range p {
		p[i] ^= 0xff
	}
	env.Payload = p
	return env
}

// handleRecordGet serves one local record to a peer, strictly from the
// local store — it never computes and never fetches, so peer fetches
// cannot cascade.
func (s *server) handleRecordGet(w http.ResponseWriter, r *http.Request) {
	corrupt := s.peerFault()
	k, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var payload []byte
	ok := false
	if s.st != nil {
		payload, ok = s.st.Get(k)
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no record for %s", k)
		return
	}
	env := fabric.NewEnvelope(k, payload)
	if corrupt {
		env = corruptPayload(env)
	}
	writeJSON(w, http.StatusOK, env)
}

// handleRecordPut accepts a record replicated from a peer. The envelope
// must byte-verify against the key in the path AND pass
// sweep.CheckPayload; anything else is rejected with 400 and nothing is
// admitted. A node without a store accepts and drops the record.
// Replication is best-effort on the sender side, so a draining node
// simply refuses with 503.
func (s *server) handleRecordPut(w http.ResponseWriter, r *http.Request) {
	s.peerFault()
	if s.draining.Load() {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", drainRetryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	k, err := store.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var env fabric.RecordEnvelope
	if !decodeJSON(w, r, &env) {
		return
	}
	payload, err := env.Verify(k)
	if err != nil {
		httpError(w, http.StatusBadRequest, "replication rejected: %v", err)
		return
	}
	if err := sweep.CheckPayload(payload); err != nil {
		httpError(w, http.StatusBadRequest, "replication rejected: %v", err)
		return
	}
	if s.st != nil {
		if err := s.st.Put(k, payload); err != nil {
			httpError(w, http.StatusBadRequest, "replication rejected: %v", err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFabricEval evaluates a forwarded point as its owner, through
// this node's cache tier. The config must decode strictly (unknown
// fields are version skew between nodes, refused rather than misread)
// and be cacheable (trace-carrying configs have no record form). The
// computation runs under a NoForward context — whatever this node's
// ring says, a forwarded point is computed here, so ownership
// disagreements between nodes degrade to local compute instead of
// looping. The sender's key must match the key this node derives from
// the config (canonical-encoding version skew answers 409, and the
// sender falls back to computing locally). A forwarded evaluation that
// must run the pipeline pays for admission like any local request, via
// the same gate.
func (s *server) handleFabricEval(w http.ResponseWriter, r *http.Request) {
	corrupt := s.peerFault()
	if s.draining.Load() {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", drainRetryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var req fabric.EvalRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	wantKey, err := store.ParseKey(req.Key)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var cfg core.Config
	dec := json.NewDecoder(bytes.NewReader(req.Config))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "eval: config does not decode: %v", err)
		return
	}
	if !store.Cacheable(cfg) {
		httpError(w, http.StatusBadRequest, "eval: config is not cacheable; evaluate it locally")
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	rep, err := s.eng.RunOneContext(sweep.WithGate(fabric.NoForward(ctx), s.adm.admit), cfg)
	if errors.Is(err, errQueueFull) {
		s.rejectQueueFull(w)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "eval: %v", err)
		return
	}
	payload, err := json.Marshal(store.RecordOf(rep))
	if err != nil {
		httpError(w, http.StatusBadRequest, "eval: %v", err)
		return
	}
	key := store.KeyOf(cfg)
	if key != wantKey {
		httpError(w, http.StatusConflict,
			"key mismatch: you derived %s, this node derives %s (canonical encoding skew?)",
			wantKey, key)
		return
	}
	env := fabric.NewEnvelope(key, payload)
	if corrupt {
		env = corruptPayload(env)
	}
	writeJSON(w, http.StatusOK, env)
}

// handlePing answers the breaker prober. A draining node answers 503 so
// peers keep (or re-open) their breakers instead of routing to a node
// about to exit.
func (s *server) handlePing(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", drainRetryAfterSeconds))
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node":    s.cfg.Fabric.Self(),
		"records": s.batcher.Stats().StoredRecords,
	})
}

// clusterStatsTimeout bounds the whole peer fan-out of /v1/cluster: the
// view is a dashboard read, and a hung peer should cost a null entry,
// not a hung dashboard.
const clusterStatsTimeout = time.Second

// handleCluster aggregates /v1/stats across the cluster: this node's
// stats computed locally, every peer's fetched concurrently with a
// short timeout. Unreachable peers appear with an error string instead
// of stats — a partial cluster view is the whole point of having one.
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	fab := s.cfg.Fabric
	snap := fab.Stats()

	type nodeEntry struct {
		Node  string         `json:"node"`
		URL   string         `json:"url,omitempty"`
		Error string         `json:"error,omitempty"`
		Stats map[string]any `json:"stats,omitempty"`
	}
	ctx, cancel := context.WithTimeout(r.Context(), clusterStatsTimeout)
	defer cancel()

	// Each peer's goroutine writes only its own entry; wg.Wait orders
	// those writes before the response is encoded.
	entries := make([]nodeEntry, len(snap.Nodes))
	var wg sync.WaitGroup
	for i, node := range snap.Nodes {
		e := &entries[i]
		e.Node = node
		if node == fab.Self() {
			e.Stats = s.statsPayload()
			continue
		}
		if e.URL = fab.URL(node); e.URL == "" {
			e.Error = "no URL configured"
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fetchPeerStats(ctx, e.URL, &e.Stats); err != nil {
				e.Error, e.Stats = err.Error(), nil
			}
		}()
	}
	wg.Wait()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Node < entries[j].Node })

	writeJSON(w, http.StatusOK, map[string]any{
		"self":   fab.Self(),
		"nodes":  entries,
		"fabric": snap,
	})
}

// fetchPeerStats GETs one peer's /v1/stats with a single attempt — the
// cluster view prefers a fast partial answer over a retried slow one.
func fetchPeerStats(ctx context.Context, baseURL string, out *map[string]any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
