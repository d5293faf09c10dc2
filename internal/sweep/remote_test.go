package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"magicstate/internal/core"
	"magicstate/internal/fabric"
	"magicstate/internal/store"
)

// The fabric is the production peer tier.
var _ Peers = (*fabric.Fabric)(nil)

// fakePeers is a scripted peer tier: fetch and eval answer Fetch and
// Evaluate (a nil func answers "not available"), and every call is
// counted.
type fakePeers struct {
	fetch          func(ctx context.Context, k store.Key) ([]byte, bool)
	eval           func(ctx context.Context, k store.Key, cfgJSON []byte) ([]byte, bool)
	fetches, evals atomic.Int64
}

func (p *fakePeers) Fetch(ctx context.Context, k store.Key) ([]byte, bool) {
	p.fetches.Add(1)
	if p.fetch == nil {
		return nil, false
	}
	return p.fetch(ctx, k)
}

func (p *fakePeers) Evaluate(ctx context.Context, k store.Key, cfgJSON []byte) ([]byte, bool) {
	p.evals.Add(1)
	if p.eval == nil {
		return nil, false
	}
	return p.eval(ctx, k, cfgJSON)
}

// withPeers sets p as e's peer tier and returns e.
func withPeers(e *Engine, p Peers) *Engine {
	e.SetPeers(p)
	return e
}

// openStore opens a store in a fresh temp dir, closed at test end.
func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// recordPayload is the final-record payload a peer would send for rep.
func recordPayload(t *testing.T, rep *core.Report) []byte {
	t.Helper()
	payload, err := json.Marshal(store.RecordOf(rep))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// sameScalars reports whether two reports agree on every stored field.
func sameScalars(a, b *core.Report) bool {
	return store.RecordOf(a) == store.RecordOf(b)
}

// peerPoint is the cheap point the peer-fetch tests serve.
var peerPoint = core.Config{K: 2, Levels: 1, Strategy: core.StrategyLinear, Seed: 1}

// TestRemoteTierServesPoints runs the same grid on a "peer" engine
// first, then wires a second engine's Peers.Evaluate to the peer and
// checks every unique point is served remotely, persisted locally, and
// scalar-identical to a locally computed run.
func TestRemoteTierServesPoints(t *testing.T) {
	cfgs := smallGrid()

	peer := New(Options{Workers: 1})
	want, err := peer.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}

	st := openStore(t)
	peers := &fakePeers{eval: func(ctx context.Context, k store.Key, cfgJSON []byte) ([]byte, bool) {
		var cfg core.Config
		if err := json.Unmarshal(cfgJSON, &cfg); err != nil || store.KeyOf(cfg) != k {
			return nil, false
		}
		rep, err := peer.RunOneContext(ctx, cfg)
		if err != nil {
			return nil, false
		}
		payload, err := json.Marshal(store.RecordOf(rep))
		return payload, err == nil
	}}
	eng := withPeers(New(Options{Workers: 2, Store: st}), peers)

	got, err := eng.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if hits := eng.RemoteEvalHits(); hits != 3 {
		t.Fatalf("RemoteEvalHits = %d, want 3 unique points", hits)
	}
	if calls := peers.evals.Load(); calls != 3 {
		t.Fatalf("Evaluate called %d times, want 3 (memo dedups the duplicate)", calls)
	}
	// Remote results are persisted like local ones.
	if puts := st.Stats().Puts; puts != 3 {
		t.Fatalf("store holds %d records, want 3", puts)
	}
	for i := range want {
		if !sameScalars(want[i], got[i]) {
			t.Fatalf("point %d differs:\n local:  %+v\n remote: %+v", i, *want[i], *got[i])
		}
	}
}

// TestRemoteTierFallsBackToLocalCompute declines every remote offer and
// checks the engine computes everything itself, correctly.
func TestRemoteTierFallsBackToLocalCompute(t *testing.T) {
	peers := &fakePeers{}
	eng := withPeers(New(Options{Workers: 1}), peers)
	reps, err := eng.Run(context.Background(), smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if peers.evals.Load() != 3 {
		t.Fatalf("Evaluate offered %d points, want 3", peers.evals.Load())
	}
	if eng.RemoteEvalHits() != 0 {
		t.Fatalf("RemoteEvalHits = %d, want 0", eng.RemoteEvalHits())
	}
	for i, rep := range reps {
		if rep == nil || rep.Latency <= 0 {
			t.Fatalf("point %d not computed locally: %+v", i, rep)
		}
	}
}

// TestRemoteTierSkipsUncacheablePoints: trace-carrying configs have no
// record form, so they are never offered for forwarded eval.
func TestRemoteTierSkipsUncacheablePoints(t *testing.T) {
	peers := &fakePeers{}
	eng := withPeers(New(Options{Workers: 1, Store: openStore(t)}), peers)
	if _, err := eng.RunOne(core.Config{K: 2, Levels: 1, RecordPaths: true}); err != nil {
		t.Fatal(err)
	}
	if peers.evals.Load() != 0 {
		t.Fatalf("uncacheable point offered for eval %d times", peers.evals.Load())
	}
}

// TestPeerFetchSkipsUncacheablePoints: a trace-carrying config has no
// record form, so its final record is never fetched from a peer, even
// with a store and a peer that would answer; the point is computed
// locally. (Its cacheable upstream stages may still be fetched.)
func TestPeerFetchSkipsUncacheablePoints(t *testing.T) {
	cfg := peerPoint
	cfg.RecordPaths = true
	final := store.KeyOf(cfg)
	payload := recordPayload(t, &core.Report{Strategy: "peer", Latency: 42, Area: 7, Volume: 294})
	peers := &fakePeers{fetch: func(_ context.Context, k store.Key) ([]byte, bool) {
		if k == final {
			t.Errorf("uncacheable final record fetched")
			return payload, true
		}
		return nil, false
	}}
	eng := withPeers(New(Options{Workers: 1, Store: openStore(t)}), peers)
	rep, err := eng.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy == "peer" || eng.PeerFetchHits() != 0 {
		t.Fatalf("uncacheable point served from a peer: %+v, PeerFetchHits=%d", rep, eng.PeerFetchHits())
	}
}

// TestRemoteTierOrderBelowStore: a point already on disk is a disk hit,
// never a peer call.
func TestRemoteTierOrderBelowStore(t *testing.T) {
	st := openStore(t)
	if _, err := New(Options{Workers: 1, Store: st}).RunOne(peerPoint); err != nil {
		t.Fatal(err)
	}
	peers := &fakePeers{}
	eng := withPeers(New(Options{Workers: 1, Store: st}), peers)
	if _, err := eng.RunOne(peerPoint); err != nil {
		t.Fatal(err)
	}
	if eng.DiskHits() != 1 || peers.fetches.Load() != 0 || peers.evals.Load() != 0 {
		t.Fatalf("diskHits=%d fetches=%d evals=%d, want 1/0/0",
			eng.DiskHits(), peers.fetches.Load(), peers.evals.Load())
	}
}

// TestPeerFetchReadThrough: a final record fetched from a peer is
// served, admitted to the local store, and answers the next engine
// locally without a second fetch.
func TestPeerFetchReadThrough(t *testing.T) {
	st := openStore(t)
	payload := recordPayload(t, &core.Report{Strategy: "peer", Latency: 42, Area: 7, Volume: 294})
	want := store.KeyOf(peerPoint)
	var fetched []store.Key
	peers := &fakePeers{fetch: func(_ context.Context, k store.Key) ([]byte, bool) {
		fetched = append(fetched, k)
		return payload, k == want
	}}
	eng := withPeers(New(Options{Workers: 1, Store: st}), peers)
	rep, err := eng.RunOne(peerPoint)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency != 42 || rep.Strategy != "peer" {
		t.Fatalf("read-through served %+v", rep)
	}
	if len(fetched) != 1 || fetched[0] != want {
		t.Fatalf("fetcher saw keys %v, want [%v]", fetched, want)
	}
	if eng.PeerFetchHits() != 1 || eng.DiskHits() != 1 || peers.evals.Load() != 0 {
		t.Fatalf("PeerFetchHits=%d DiskHits=%d evals=%d, want 1/1/0",
			eng.PeerFetchHits(), eng.DiskHits(), peers.evals.Load())
	}
	if got, ok := st.Get(want); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("fetched record not admitted locally: %q, %t", got, ok)
	}

	// A fresh engine on the same store (no memo) answers from disk.
	again := withPeers(New(Options{Workers: 1, Store: st}), peers)
	if rep, err := again.RunOne(peerPoint); err != nil || rep.Latency != 42 {
		t.Fatalf("second lookup = %+v, %v", rep, err)
	}
	if len(fetched) != 1 || again.PeerFetchHits() != 0 || again.DiskHits() != 1 {
		t.Fatalf("second lookup: %d fetches, PeerFetchHits=%d DiskHits=%d, want 1/0/1",
			len(fetched), again.PeerFetchHits(), again.DiskHits())
	}
}

// TestPeerRecordRejected: a final-record payload that does not decode
// strictly — not JSON, or carrying a field this node does not know — is
// refused on fetch and on forwarded eval alike: nothing is admitted and
// the point is computed locally.
func TestPeerRecordRejected(t *testing.T) {
	local, err := core.Run(peerPoint)
	if err != nil {
		t.Fatal(err)
	}
	good := recordPayload(t, local)
	k := store.KeyOf(peerPoint)
	for _, bad := range [][]byte{
		[]byte(`{not json`),
		append(bytes.TrimSuffix(append([]byte(nil), good...), []byte("}")), []byte(`,"surprise_field":1}`)...),
	} {
		for _, path := range []string{"fetch", "eval"} {
			st := openStore(t)
			peers := &fakePeers{}
			serveBad := func() ([]byte, bool) { return append([]byte(nil), bad...), true }
			if path == "fetch" {
				peers.fetch = func(_ context.Context, got store.Key) ([]byte, bool) {
					if got != k {
						return nil, false
					}
					return serveBad()
				}
			} else {
				peers.eval = func(context.Context, store.Key, []byte) ([]byte, bool) { return serveBad() }
			}
			eng := withPeers(New(Options{Workers: 1, Store: st}), peers)
			rep, err := eng.RunOne(peerPoint)
			if err != nil {
				t.Fatal(err)
			}
			if !sameScalars(rep, local) {
				t.Fatalf("%s %q: served %+v, want local %+v", path, bad, *rep, *local)
			}
			if eng.PeerFetchHits() != 0 || eng.RemoteEvalHits() != 0 || eng.StageStats().BuildComputes != 1 {
				t.Fatalf("%s %q: PeerFetchHits=%d RemoteEvalHits=%d stages=%+v, want a local compute",
					path, bad, eng.PeerFetchHits(), eng.RemoteEvalHits(), eng.StageStats())
			}
			if got, _ := st.Get(k); !bytes.Equal(got, good) {
				t.Fatalf("%s %q: store holds %q, want the local record %q", path, bad, got, good)
			}
		}
	}
}

// TestPeerFetchNeedsStore: without a store there is nowhere to admit a
// fetched payload, so no fetch is made; forwarded eval is still offered.
func TestPeerFetchNeedsStore(t *testing.T) {
	peers := &fakePeers{fetch: func(context.Context, store.Key) ([]byte, bool) {
		t.Error("fetch without a store")
		return nil, false
	}}
	eng := withPeers(New(Options{Workers: 1}), peers)
	if rep, err := eng.RunOne(peerPoint); err != nil || rep.Latency <= 0 {
		t.Fatalf("RunOne = %+v, %v", rep, err)
	}
	if peers.fetches.Load() != 0 || peers.evals.Load() != 1 {
		t.Fatalf("fetches=%d evals=%d, want 0/1", peers.fetches.Load(), peers.evals.Load())
	}
}

// TestPeerFetchServedWhenAdmissionWriteFails: a verified peer record is
// served even when writing it to the local store fails; the failed
// write is counted, and nothing is computed.
func TestPeerFetchServedWhenAdmissionWriteFails(t *testing.T) {
	st, err := store.OpenWithFaults(t.TempDir(), &store.FaultPlan{FailWriteOp: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := recordPayload(t, &core.Report{Strategy: "peer", Latency: 42, Area: 7, Volume: 294})
	peers := &fakePeers{fetch: func(context.Context, store.Key) ([]byte, bool) { return payload, true }}
	eng := withPeers(New(Options{Workers: 1, Store: st}), peers)
	rep, err := eng.RunOne(peerPoint)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency != 42 || eng.PeerFetchHits() != 1 {
		t.Fatalf("served %+v with PeerFetchHits=%d, want the peer record", rep, eng.PeerFetchHits())
	}
	if eng.PutFailures() != 1 {
		t.Fatalf("PutFailures = %d, want 1", eng.PutFailures())
	}
	if ss := eng.StageStats(); ss != (StageStats{}) {
		t.Fatalf("stages ran for a peer-served point: %+v", ss)
	}
}

// peerWithStages runs peerPoint on an engine over a fresh store and
// returns that store: a peer holding the point's final record and every
// stage artifact.
func peerWithStages(t *testing.T) *store.Store {
	t.Helper()
	st := openStore(t)
	if _, err := New(Options{Workers: 1, Store: st}).RunOne(peerPoint); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPeerStageFetchAdmitsArtifact: a point the peer never computed,
// sharing its build with one the peer did, computes locally but replays
// the build fetched from the peer. The artifact is admitted and counted
// as a stage hit, not as a final-record peer hit or a disk hit.
func TestPeerStageFetchAdmitsArtifact(t *testing.T) {
	peer := peerWithStages(t)
	cfg := peerPoint
	cfg.Seed = 2
	buildKey := store.StageKeyOf(core.StageBuild, cfg)
	if buildKey != store.StageKeyOf(core.StageBuild, peerPoint) || store.KeyOf(cfg) == store.KeyOf(peerPoint) {
		t.Fatal("test point must share the peer's build but not its final record")
	}
	st := openStore(t)
	eng := withPeers(New(Options{Workers: 1, Store: st}), &fakePeers{fetch: func(_ context.Context, k store.Key) ([]byte, bool) {
		return peer.Get(k)
	}})
	rep, err := eng.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameScalars(rep, want) {
		t.Fatalf("served %+v, want %+v", *rep, *want)
	}
	ss := eng.StageStats()
	if ss.BuildHits != 1 || ss.BuildComputes != 0 {
		t.Fatalf("build hits/computes = %d/%d, want 1/0", ss.BuildHits, ss.BuildComputes)
	}
	if eng.PeerFetchHits() != 0 || eng.DiskHits() != 0 {
		t.Fatalf("PeerFetchHits=%d DiskHits=%d, want 0/0: stage fetches are not final-record hits",
			eng.PeerFetchHits(), eng.DiskHits())
	}
	if _, ok := st.GetStage(core.StageBuild, cfg); !ok {
		t.Fatal("fetched build artifact not admitted locally")
	}
}

// TestPeerStageFetchRejectsBadPayload: a payload under the build key
// that is framed for another stage, or whose body does not decode, is
// refused: nothing is admitted and the build is computed locally.
func TestPeerStageFetchRejectsBadPayload(t *testing.T) {
	peer := peerWithStages(t)
	buildKey := store.StageKeyOf(core.StageBuild, peerPoint)
	simPayload, ok := peer.Get(store.StageKeyOf(core.StageSim, peerPoint))
	if !ok {
		t.Fatal("peer holds no sim artifact")
	}
	buildPayload, ok := peer.Get(buildKey)
	if !ok {
		t.Fatal("peer holds no build artifact")
	}
	for name, bad := range map[string][]byte{
		"wrong stage": simPayload,
		"truncated":   buildPayload[:len(buildPayload)-1],
	} {
		st := openStore(t)
		peers := &fakePeers{fetch: func(_ context.Context, k store.Key) ([]byte, bool) {
			return bad, k == buildKey
		}}
		eng := withPeers(New(Options{Workers: 1, Store: st}), peers)
		if _, err := eng.RunOne(peerPoint); err != nil {
			t.Fatal(err)
		}
		if ss := eng.StageStats(); ss.BuildHits != 0 || ss.BuildComputes != 1 {
			t.Fatalf("%s: build hits/computes = %d/%d, want 0/1", name, ss.BuildHits, ss.BuildComputes)
		}
		if got, _ := st.Get(buildKey); !bytes.Equal(got, buildPayload) {
			t.Fatalf("%s: store holds a build payload other than the local compute's", name)
		}
	}
}
