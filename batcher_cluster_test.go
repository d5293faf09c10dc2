package magicstate

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// parseTestKey converts PointKey's hex form to the raw 32-byte key the
// cluster hooks deal in.
func parseTestKey(t *testing.T, s string) (k [32]byte) {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		t.Fatalf("bad key %q: %v", s, err)
	}
	copy(k[:], b)
	return k
}

// TestBatcherClusterHooks wires two batchers into a miniature two-node
// cluster in-process: node A's remote hooks call straight into node B's
// serving methods (RecordGet, EvalConfigJSON), the way cmd/msfud wires
// them through the fabric's HTTP calls.
func TestBatcherClusterHooks(t *testing.T) {
	nodeB, err := NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	var fetches, evals int
	nodeA, err := NewBatcher(BatcherOptions{
		Parallelism: 1,
		Checkpoint:  t.TempDir(),
		RemoteFetch: func(ctx context.Context, key [32]byte) ([]byte, bool) {
			fetches++
			return nodeB.RecordGet(key)
		},
		RemoteEval: func(ctx context.Context, key [32]byte, cfgJSON []byte) ([]byte, bool) {
			evals++
			gotKey, payload, err := nodeB.EvalConfigJSON(ctx, cfgJSON)
			if err != nil || gotKey != key {
				return nil, false
			}
			return payload, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	spec := FactorySpec{Capacity: 2, Levels: 1}
	want, err := nodeB.Optimize(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Node A's first sight of the point: local memo miss, local store
	// miss, then the fetch hook finds node B's record.
	got, err := nodeA.Optimize(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("fetched result %+v differs from origin %+v", *got, *want)
	}
	if fetches != 1 {
		t.Fatalf("fetch hook called %d times, want 1", fetches)
	}
	if st := nodeA.Stats(); st.PeerFetchHits != 1 {
		t.Fatalf("PeerFetchHits = %d, want 1", st.PeerFetchHits)
	}

	// A point node B has never seen: the fetch misses, the eval hook
	// forwards the computation to node B.
	spec2 := FactorySpec{Capacity: 4, Levels: 1}
	want2, err := nodeA.Optimize(spec2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if evals != 1 {
		t.Fatalf("eval hook called %d times, want 1", evals)
	}
	if nodeA.Stats().RemoteEvalHits != 1 {
		t.Fatalf("RemoteEvalHits = %d, want 1", nodeA.Stats().RemoteEvalHits)
	}
	// Node B computed and stored it; node A persisted the result too.
	if direct, err := nodeB.Optimize(spec2, Options{}); err != nil || *direct != *want2 {
		t.Fatalf("node B's own result %+v (err %v) differs from forwarded %+v", direct, err, *want2)
	}
	if nodeA.Stats().StoredRecords != 2 {
		t.Fatalf("node A stored %d records, want 2", nodeA.Stats().StoredRecords)
	}
}

// TestPeerFetchHitsCountFinalRecordsOnly: a point no peer holds is
// computed locally, but its factory build, shared with a point the peer
// did compute, is fetched from the peer. That fetch is a stage hit, not
// a PeerFetchHits point.
func TestPeerFetchHitsCountFinalRecordsOnly(t *testing.T) {
	nodeB, err := NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA, err := NewBatcher(BatcherOptions{
		Parallelism: 1,
		Checkpoint:  t.TempDir(),
		RemoteFetch: func(ctx context.Context, key [32]byte) ([]byte, bool) { return nodeB.RecordGet(key) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

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
	if st.PeerFetchHits != 0 || st.DiskHits != 0 {
		t.Fatalf("PeerFetchHits=%d DiskHits=%d, want 0/0 for a locally computed point", st.PeerFetchHits, st.DiskHits)
	}
}

func TestRecordPutVerifiesPayload(t *testing.T) {
	b, err := NewBatcher(BatcherOptions{Parallelism: 1, Checkpoint: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	keyHex, err := PointKey(FactorySpec{Capacity: 2, Levels: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := parseTestKey(t, keyHex)

	if err := b.RecordPut(k, []byte(`{"strategy":"x","latency":1,"area":1,"volume":1,"critical_latency":1,"critical_volume":1,"perm_latency":0,"stalls":0}`)); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	if _, ok := b.RecordGet(k); !ok {
		t.Fatal("admitted record not served")
	}
	if err := b.RecordPut(k, []byte(`not a record`)); err == nil {
		t.Fatal("garbage payload admitted")
	}
	if err := b.RecordPut(k, []byte(`{"strategy":"x","surprise_field":1}`)); err == nil {
		t.Fatal("unknown-field payload admitted (version-skew guard)")
	}
}

func TestEvalConfigJSONContract(t *testing.T) {
	b, err := NewBatcher(BatcherOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	cfg, err := optimizeConfig(FactorySpec{Capacity: 2, Levels: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, payload, err := b.EvalConfigJSON(context.Background(), cfgJSON)
	if err != nil {
		t.Fatal(err)
	}
	wantKey, _ := PointKey(FactorySpec{Capacity: 2, Levels: 1}, Options{})
	if hex.EncodeToString(key[:]) != wantKey {
		t.Fatalf("key = %x, want %s", key, wantKey)
	}
	var rec map[string]any
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatalf("payload does not decode: %v", err)
	}
	if rec["latency"].(float64) <= 0 {
		t.Fatalf("payload = %s", payload)
	}

	// Strict decode: unknown fields are refused.
	if _, _, err := b.EvalConfigJSON(context.Background(), []byte(`{"K":2,"NoSuchField":1}`)); err == nil {
		t.Fatal("unknown config field accepted")
	}
	// Uncacheable (trace-carrying) configs are refused, not computed.
	traceCfg, err := optimizeConfig(FactorySpec{Capacity: 2, Levels: 1}, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, _ := json.Marshal(traceCfg)
	if _, _, err := b.EvalConfigJSON(context.Background(), traceJSON); err == nil {
		t.Fatal("uncacheable config accepted")
	}
}
