package magicstate

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/store"
	"magicstate/internal/sweep"
)

// batcherPeer is an in-process peer tier backed by another batcher: it
// serves fetches from that batcher's store and evaluates forwarded
// points on its engine, the way cmd/msfud's peer endpoints do over
// HTTP. With fetchOnly it refuses every forwarded evaluation. Calls
// are counted.
type batcherPeer struct {
	eng            *sweep.Engine
	st             *store.Store
	fetchOnly      bool
	fetches, evals int
}

func (p *batcherPeer) Fetch(ctx context.Context, k store.Key) ([]byte, bool) {
	p.fetches++
	return p.st.Get(k)
}

func (p *batcherPeer) Evaluate(ctx context.Context, k store.Key, cfgJSON []byte) ([]byte, bool) {
	p.evals++
	if p.fetchOnly {
		return nil, false
	}
	var cfg core.Config
	dec := json.NewDecoder(bytes.NewReader(cfgJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil || !store.Cacheable(cfg) || store.KeyOf(cfg) != k {
		return nil, false
	}
	rep, err := p.eng.RunOneContext(ctx, cfg)
	if err != nil {
		return nil, false
	}
	payload, err := json.Marshal(store.RecordOf(rep))
	if err != nil {
		return nil, false
	}
	return payload, true
}

// clusterPair returns two checkpointed batchers with node A's cache
// tier wired, through sweep.TierOf, to node B as its peer.
func clusterPair(t *testing.T, fetchOnly bool) (nodeA, nodeB *Batcher, peer *batcherPeer) {
	t.Helper()
	nodeB, err := NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nodeB.Close() })
	nodeA, err = NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nodeA.Close() })
	engB, stB := sweep.TierOf(nodeB)
	peer = &batcherPeer{eng: engB, st: stB, fetchOnly: fetchOnly}
	engA, _ := sweep.TierOf(nodeA)
	engA.SetPeers(peer)
	return nodeA, nodeB, peer
}

// TestBatcherClusterHooks wires two batchers into a miniature two-node
// cluster in-process: node A's peer tier, installed through
// sweep.TierOf, calls straight into node B's store and engine.
func TestBatcherClusterHooks(t *testing.T) {
	nodeA, nodeB, peer := clusterPair(t, false)
	engA, _ := sweep.TierOf(nodeA)

	spec := FactorySpec{Capacity: 2, Levels: 1}
	want, err := nodeB.Optimize(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Node A's first sight of the point: local memo miss, local store
	// miss, then the peer fetch finds node B's record.
	got, err := nodeA.Optimize(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("fetched result %+v differs from origin %+v", *got, *want)
	}
	if peer.fetches != 1 {
		t.Fatalf("peer fetched %d times, want 1", peer.fetches)
	}
	if hits := engA.PeerFetchHits(); hits != 1 {
		t.Fatalf("PeerFetchHits = %d, want 1", hits)
	}

	// A point node B has never seen: the fetch misses, and the
	// evaluation is forwarded to node B.
	spec2 := FactorySpec{Capacity: 4, Levels: 1}
	want2, err := nodeA.Optimize(spec2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if peer.evals != 1 {
		t.Fatalf("peer evaluated %d times, want 1", peer.evals)
	}
	if hits := engA.RemoteEvalHits(); hits != 1 {
		t.Fatalf("RemoteEvalHits = %d, want 1", hits)
	}
	// Node B computed and stored it; node A persisted the result too.
	if direct, err := nodeB.Optimize(spec2, Options{}); err != nil || *direct != *want2 {
		t.Fatalf("node B's own result %+v (err %v) differs from forwarded %+v", direct, err, *want2)
	}
	if n := nodeA.Stats().StoredRecords; n != 2 {
		t.Fatalf("node A stored %d records, want 2", n)
	}
}

// TestPeerFetchHitsCountFinalRecordsOnly: a point no peer holds is
// computed locally, but its factory build, shared with a point the peer
// did compute, is fetched from the peer. That fetch is a stage hit, not
// a PeerFetchHits point.
func TestPeerFetchHitsCountFinalRecordsOnly(t *testing.T) {
	nodeA, nodeB, _ := clusterPair(t, true)
	engA, _ := sweep.TierOf(nodeA)

	spec := FactorySpec{Capacity: 2, Levels: 1}
	opts := Options{Seed: 1}.WithStrategy(LinearMapping)
	if _, err := nodeB.Optimize(spec, opts); err != nil {
		t.Fatal(err)
	}
	opts.Seed = 2 // a new final record; linear mapping keeps the build
	if _, err := nodeA.Optimize(spec, opts); err != nil {
		t.Fatal(err)
	}
	st := nodeA.Stats()
	if st.StageBuildHits != 1 || st.StageBuildComputes != 0 {
		t.Fatalf("build hits/computes = %d/%d, want 1/0", st.StageBuildHits, st.StageBuildComputes)
	}
	if hits := engA.PeerFetchHits(); hits != 0 || st.DiskHits != 0 {
		t.Fatalf("PeerFetchHits=%d DiskHits=%d, want 0/0 for a locally computed point", hits, st.DiskHits)
	}
}
