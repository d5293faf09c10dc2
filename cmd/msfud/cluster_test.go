package main

// In-process cluster tests: each "node" is a full server (batcher,
// admission, fabric) behind an httptest listener, cross-wired by URL.
// The chaos cases drive the same -fault-peer plans the soak harness
// uses, so what is asserted here deterministically is what the smoke
// job probes statistically: a cluster with a killed, stalled or
// corrupting peer answers every request 200 with bytes identical to a
// single-node serial run, and every orphaned point is accounted for by
// a fallback-compute counter.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"magicstate"
	"magicstate/internal/core"
	"magicstate/internal/fabric"
	"magicstate/internal/httpclient"
	"magicstate/internal/store"
)

// clusterNode is one in-process cluster member and its internals.
type clusterNode struct {
	name   string
	ts     *httptest.Server
	srv    *server
	b      *magicstate.Batcher
	fab    *fabric.Fabric
	killed bool
}

// kill simulates SIGKILL: connections die and the port stops answering,
// with no drain handshake.
func (n *clusterNode) kill() {
	n.killed = true
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// clusterOpt shapes a test cluster. The zero value is a plain cluster:
// no replication, no background workers, default peer timeout.
type clusterOpt struct {
	replicate bool
	run       bool              // start each fabric's replication worker and prober
	timeout   time.Duration     // peer-call timeout (0 = fabric default)
	faults    map[string]string // node id -> -fault-peer plan for that node
}

// newTestCluster boots one server per name, each with its own store and
// fabric, then cross-wires the peer URLs. newServer joins each fabric to
// its batcher's cache tier, as it does for run. Breakers are tuned sharp
// (threshold 2, one-minute cooldown, single-attempt client) so failure
// handling is deterministic within a test.
func newTestCluster(t *testing.T, names []string, opt clusterOpt) map[string]*clusterNode {
	t.Helper()
	nodes := make(map[string]*clusterNode, len(names))
	for _, name := range names {
		fab, err := fabric.New(fabric.Options{
			Self:             name,
			Nodes:            names,
			BreakerThreshold: 2,
			BreakerCooldown:  time.Minute,
			Timeout:          opt.timeout,
			Replicate:        opt.replicate,
			Client: &httpclient.Client{
				MaxAttempts: 1,
				Sleep:       func(context.Context, time.Duration) error { return nil },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := magicstate.NewBatcher(magicstate.BatcherOptions{Parallelism: 2, Checkpoint: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		cfg := serverConfig{MaxParallel: 2, MaxPoints: 256, MaxInflight: 4, MaxQueue: 16, Fabric: fab}
		if spec := opt.faults[name]; spec != "" {
			plan, err := fabric.ParsePeerFaultPlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.PeerFaults = plan
		}
		srv := newServer(b, cfg)
		n := &clusterNode{name: name, srv: srv, b: b, fab: fab}
		n.ts = httptest.NewServer(srv.handler())
		t.Cleanup(func() {
			if !n.killed {
				n.ts.Close()
			}
		})
		nodes[name] = n
	}
	for _, n := range nodes {
		for _, m := range nodes {
			if n != m {
				n.fab.SetURL(m.name, m.ts.URL)
			}
		}
	}
	if opt.run {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		for _, n := range nodes {
			go n.fab.Run(ctx)
		}
	}
	return nodes
}

// clusterPointKey derives the store key the cluster routes on for the
// fixed (capacity 4, level 1) test point family, varying only the seed:
// the config a default-strategy optimize request lowers to.
func clusterPointKey(t *testing.T, seed int64) store.Key {
	t.Helper()
	return store.KeyOf(core.Config{K: 4, Levels: 1, Strategy: core.StrategyLinear, Seed: seed})
}

// planSeeds picks one distinct seed per requested owner, in order, by
// scanning the seed space against the ring. Ownership is a pure hash,
// so the plan is deterministic across runs.
func planSeeds(t *testing.T, ring *fabric.Ring, owners []string) []int64 {
	t.Helper()
	seeds := make([]int64, len(owners))
	var cursor int64
	for i, owner := range owners {
		for {
			cursor++
			if cursor > 100000 {
				t.Fatalf("no seed owned by %s in the first %d", owner, cursor)
			}
			if ring.Owner(clusterPointKey(t, cursor)) == owner {
				seeds[i] = cursor
				break
			}
		}
	}
	return seeds
}

// optimizeBody POSTs one point and returns the status and the exact
// response bytes, which the cluster tests compare byte-for-byte against
// a single-node serial baseline.
func optimizeBody(t *testing.T, baseURL string, req optimizeRequest) (int, string) {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/optimize", req)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// peerSnap extracts one peer's counters from a fabric snapshot.
func peerSnap(t *testing.T, f *fabric.Fabric, node string) fabric.PeerSnapshot {
	t.Helper()
	for _, p := range f.Stats().Peers {
		if p.Node == node {
			return p
		}
	}
	t.Fatalf("no peer %s in snapshot", node)
	return fabric.PeerSnapshot{}
}

// serialBaseline computes every seed's point on a fabric-less server
// and returns the response bodies the cluster must reproduce exactly.
func serialBaseline(t *testing.T, seeds []int64) []string {
	t.Helper()
	ts, _, _ := newRobustServer(t, serverConfig{MaxInflight: 4, MaxQueue: 16})
	out := make([]string, len(seeds))
	for i, seed := range seeds {
		code, body := optimizeBody(t, ts.URL, optimizeRequest{Capacity: 4, Levels: 1, Seed: seed})
		if code != http.StatusOK {
			t.Fatalf("baseline point %d: status %d: %s", i, code, body)
		}
		out[i] = body
	}
	return out
}

// TestClusterPeerReadThrough: a record computed at its owner is served
// to the rest of the cluster by fetch, not recomputation; a point its
// owner has never seen is evaluated there on the asker's behalf, and
// the asker persists the result.
func TestClusterPeerReadThrough(t *testing.T) {
	names := []string{"pa", "pb"}
	ring, err := fabric.NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	seeds := planSeeds(t, ring, []string{"pb", "pb"})
	baseline := serialBaseline(t, seeds)
	req := optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[0]}

	nodes := newTestCluster(t, names, clusterOpt{})
	if code, body := optimizeBody(t, nodes["pb"].ts.URL, req); code != http.StatusOK || body != baseline[0] {
		t.Fatalf("owner compute: status %d body %s, want 200 %s", code, body, baseline[0])
	}
	if code, body := optimizeBody(t, nodes["pa"].ts.URL, req); code != http.StatusOK || body != baseline[0] {
		t.Fatalf("peer read-through: status %d body %s, want 200 %s", code, body, baseline[0])
	}
	ps := peerSnap(t, nodes["pa"].fab, "pb")
	if ps.FetchHits != 1 || ps.Forwards != 0 {
		t.Fatalf("peer pb counters = %+v, want exactly one fetch hit and no forwards", ps)
	}
	if hits := nodes["pa"].srv.eng.PeerFetchHits(); hits != 1 {
		t.Fatalf("PeerFetchHits = %d, want 1", hits)
	}

	// A point pb has never seen: pa's fetch misses, and the evaluation
	// is forwarded to pb.
	req2 := optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[1]}
	if code, body := optimizeBody(t, nodes["pa"].ts.URL, req2); code != http.StatusOK || body != baseline[1] {
		t.Fatalf("forwarded eval: status %d body %s, want 200 %s", code, body, baseline[1])
	}
	ps = peerSnap(t, nodes["pa"].fab, "pb")
	if ps.FetchHits != 1 || ps.FetchMisses != 1 || ps.Forwards != 1 {
		t.Fatalf("peer pb counters = %+v, want one fetch hit, one fetch miss and one forward", ps)
	}
	if hits := nodes["pa"].srv.eng.RemoteEvalHits(); hits != 1 {
		t.Fatalf("RemoteEvalHits = %d, want 1", hits)
	}
	// pb computed and stored it; pa persisted the result too.
	if code, body := optimizeBody(t, nodes["pb"].ts.URL, req2); code != http.StatusOK || body != baseline[1] {
		t.Fatalf("owner's own answer: status %d body %s, want 200 %s", code, body, baseline[1])
	}
	if n := nodes["pa"].b.Stats().StoredRecords; n != 2 {
		t.Fatalf("pa stored %d records, want 2", n)
	}
}

// TestClusterFailoverKill is the deterministic failover acceptance
// test: a 3-node cluster sweeps a seed grid with one node SIGKILLed
// halfway through. Every response must be 200 and byte-identical to the
// single-node serial baseline, and the survivors' fallback-compute
// counters must account for exactly the points orphaned by the kill.
func TestClusterFailoverKill(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	ring, err := fabric.NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	// Four points per owner, interleaved, so both halves of the sweep
	// touch every owner.
	var owners []string
	for i := 0; i < 4; i++ {
		owners = append(owners, "n1", "n2", "n3")
	}
	seeds := planSeeds(t, ring, owners)
	baseline := serialBaseline(t, seeds)

	nodes := newTestCluster(t, names, clusterOpt{})
	order := []string{"n1", "n2", "n3"}

	// First half, all nodes alive: request each point at a NON-owner, so
	// the fabric's fetch-miss + forward path carries real traffic.
	for i := 0; i < 6; i++ {
		n := nodes[order[(i+1)%3]]
		code, body := optimizeBody(t, n.ts.URL, optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[i]})
		if code != http.StatusOK {
			t.Fatalf("point %d via %s: status %d: %s", i, n.name, code, body)
		}
		if body != baseline[i] {
			t.Fatalf("point %d via %s differs from serial baseline:\n got %s\nwant %s", i, n.name, body, baseline[i])
		}
	}

	nodes["n3"].kill()

	// Second half on the survivors. Points owned by the dead node are
	// orphans: their owner is unreachable, so whichever survivor gets
	// the request must fall back to computing locally.
	survivors := []string{"n1", "n2"}
	orphans := 0
	for i := 6; i < len(seeds); i++ {
		if owners[i] == "n3" {
			orphans++
		}
		n := nodes[survivors[i%2]]
		code, body := optimizeBody(t, n.ts.URL, optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[i]})
		if code != http.StatusOK {
			t.Fatalf("point %d via %s after kill: status %d (a non-injected non-200): %s", i, n.name, code, body)
		}
		if body != baseline[i] {
			t.Fatalf("point %d via %s after kill differs from serial baseline:\n got %s\nwant %s", i, n.name, body, baseline[i])
		}
	}
	if orphans == 0 {
		t.Fatal("test plan broken: no orphaned points after the kill")
	}
	total := nodes["n1"].fab.Stats().FallbackComputes + nodes["n2"].fab.Stats().FallbackComputes
	if total != int64(orphans) {
		t.Fatalf("fallback computes across survivors = %d, want %d (one per orphaned point)", total, orphans)
	}
}

// TestClusterCorruptPeerNeverAdmitted: a peer serving bit-flipped
// payloads (fault plan corrupt=1) is caught by byte verification on
// both the fetch and the forwarded-eval path; callers fall back to
// local compute and no corrupt record is ever admitted to any store.
func TestClusterCorruptPeerNeverAdmitted(t *testing.T) {
	names := []string{"na", "nb", "nc"}
	ring, err := fabric.NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	seeds := planSeeds(t, ring, []string{"nb"})
	baseline := serialBaseline(t, seeds)
	req := optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[0]}
	k := clusterPointKey(t, seeds[0])

	nodes := newTestCluster(t, names, clusterOpt{faults: map[string]string{"nb": "corrupt=1"}})

	// na asks first: nb has no record (clean 404 miss), the forwarded
	// eval comes back corrupted and is rejected, na computes locally.
	if code, body := optimizeBody(t, nodes["na"].ts.URL, req); code != http.StatusOK || body != baseline[0] {
		t.Fatalf("na: status %d body %s, want 200 %s", code, body, baseline[0])
	}
	psA := peerSnap(t, nodes["na"].fab, "nb")
	if psA.FetchMisses != 1 || psA.ForwardFailures != 1 {
		t.Fatalf("na's view of nb = %+v, want one clean miss and one rejected forward", psA)
	}
	if fb := nodes["na"].fab.Stats().FallbackComputes; fb != 1 {
		t.Fatalf("na fallback computes = %d, want 1", fb)
	}

	// nb computed and stored the point while serving the corrupted eval,
	// so nc's read-through fetch now gets a real record — corrupted on
	// the wire. It must be rejected, and nc must still answer correctly.
	if code, body := optimizeBody(t, nodes["nc"].ts.URL, req); code != http.StatusOK || body != baseline[0] {
		t.Fatalf("nc: status %d body %s, want 200 %s", code, body, baseline[0])
	}
	psC := peerSnap(t, nodes["nc"].fab, "nb")
	if psC.FetchRejected != 1 || psC.ForwardFailures != 1 {
		t.Fatalf("nc's view of nb = %+v, want one rejected fetch and one rejected forward", psC)
	}

	// Every store holds the same canonical bytes — the corruption never
	// crossed into anyone's log.
	want, ok := nodes["nb"].srv.st.Get(k)
	if !ok {
		t.Fatal("owner nb did not store the record it computed")
	}
	for _, name := range []string{"na", "nc"} {
		got, ok := nodes[name].srv.st.Get(k)
		if !ok {
			t.Fatalf("%s did not persist its fallback compute", name)
		}
		if string(got) != string(want) {
			t.Fatalf("%s stored %s, owner stored %s", name, got, want)
		}
	}
}

// TestClusterStallFallsBack: a peer stalling past the fabric timeout is
// indistinguishable from a dead one — the caller times out, falls back,
// and still answers correctly.
func TestClusterStallFallsBack(t *testing.T) {
	names := []string{"sa", "sb"}
	ring, err := fabric.NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	seeds := planSeeds(t, ring, []string{"sb"})
	baseline := serialBaseline(t, seeds)
	req := optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[0]}

	nodes := newTestCluster(t, names, clusterOpt{
		timeout: 50 * time.Millisecond,
		faults:  map[string]string{"sb": "stall=1:300ms"},
	})
	if code, body := optimizeBody(t, nodes["sa"].ts.URL, req); code != http.StatusOK || body != baseline[0] {
		t.Fatalf("sa: status %d body %s, want 200 %s", code, body, baseline[0])
	}
	ps := peerSnap(t, nodes["sa"].fab, "sb")
	if ps.FetchFailures != 1 || ps.ForwardFailures != 1 {
		t.Fatalf("sa's view of sb = %+v, want one timed-out fetch and one timed-out forward", ps)
	}
	if fb := nodes["sa"].fab.Stats().FallbackComputes; fb != 1 {
		t.Fatalf("fallback computes = %d, want 1", fb)
	}
}

// TestClusterReplicationToSuccessor: with -replicate on, a record
// freshly computed at its owner lands, byte-identical, on the key's
// ring successor without that node ever being asked.
func TestClusterReplicationToSuccessor(t *testing.T) {
	names := []string{"ra", "rb", "rc"}
	ring, err := fabric.NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	seeds := planSeeds(t, ring, []string{"ra"})
	req := optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[0]}
	k := clusterPointKey(t, seeds[0])
	succ := ring.Successor(k)
	if succ == "" || succ == "ra" {
		t.Fatalf("successor of a ra-owned key = %q", succ)
	}

	nodes := newTestCluster(t, names, clusterOpt{replicate: true, run: true})
	if code, _ := optimizeBody(t, nodes["ra"].ts.URL, req); code != http.StatusOK {
		t.Fatalf("owner compute: status %d", code)
	}
	want, ok := nodes["ra"].srv.st.Get(k)
	if !ok {
		t.Fatal("owner did not store its own record")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := nodes[succ].srv.st.Get(k); ok {
			if string(got) != string(want) {
				t.Fatalf("replica on %s = %s, origin = %s", succ, got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never replicated to successor %s", succ)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The replica can land on the receiver an instant before the sender
	// finishes reading the response and counts the send, so poll. Stage
	// records the owner also happens to own hash independently, so their
	// replicas may ride along to the same successor — assert at least the
	// final record's send, not an exact count.
	for peerSnap(t, nodes["ra"].fab, succ).ReplicationSent < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("replication_sent to %s = %d, want >= 1",
				succ, peerSnap(t, nodes["ra"].fab, succ).ReplicationSent)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterViewAndFabricMetricsAgree: GET /v1/cluster aggregates all
// members, and the fabric counters in /v1/stats match the per-peer
// series /metrics exports — the cluster extension of the stats/metrics
// agreement contract.
func TestClusterViewAndFabricMetricsAgree(t *testing.T) {
	names := []string{"va", "vb", "vc"}
	ring, err := fabric.NewRing(names)
	if err != nil {
		t.Fatal(err)
	}
	seeds := planSeeds(t, ring, []string{"vb"})
	req := optimizeRequest{Capacity: 4, Levels: 1, Seed: seeds[0]}

	nodes := newTestCluster(t, names, clusterOpt{})
	if code, _ := optimizeBody(t, nodes["va"].ts.URL, req); code != http.StatusOK {
		t.Fatalf("forwarded compute: status %d", code)
	}

	resp, err := http.Get(nodes["va"].ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	view := decode[struct {
		Self  string `json:"self"`
		Nodes []struct {
			Node  string         `json:"node"`
			Error string         `json:"error"`
			Stats map[string]any `json:"stats"`
		} `json:"nodes"`
		Fabric fabric.Snapshot `json:"fabric"`
	}](t, resp)
	if view.Self != "va" || len(view.Nodes) != 3 {
		t.Fatalf("cluster view self=%q with %d nodes, want va with 3", view.Self, len(view.Nodes))
	}
	for _, n := range view.Nodes {
		if n.Error != "" || n.Stats == nil {
			t.Fatalf("node %s in cluster view: error=%q stats=%v, want live stats", n.Node, n.Error, n.Stats)
		}
	}

	r, err := http.Get(nodes["va"].ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[struct {
		Fabric fabric.Snapshot `json:"fabric"`
	}](t, r)
	if got := peerForwards(stats.Fabric, "vb"); got < 1 {
		t.Fatalf("stats report %d forwards to vb, want >= 1", got)
	}

	forwardSeries := scrapeMetricSeries(t, nodes["va"].ts.URL, "msfud_fabric_forward_total")
	fetchHitSeries := scrapeMetricSeries(t, nodes["va"].ts.URL, "msfud_fabric_fetch_hits_total")
	breakerSeries := scrapeMetricSeries(t, nodes["va"].ts.URL, "msfud_fabric_breaker_state")
	for _, p := range stats.Fabric.Peers {
		label := fmt.Sprintf("{peer=%q}", p.Node)
		if got := forwardSeries[label]; got != float64(p.Forwards) {
			t.Errorf("msfud_fabric_forward_total%s = %g, /v1/stats says %d", label, got, p.Forwards)
		}
		if got := fetchHitSeries[label]; got != float64(p.FetchHits) {
			t.Errorf("msfud_fabric_fetch_hits_total%s = %g, /v1/stats says %d", label, got, p.FetchHits)
		}
		if got, ok := breakerSeries[label]; !ok || got != 0 {
			t.Errorf("msfud_fabric_breaker_state%s = %g (present %v), want 0 (closed)", label, got, ok)
		}
	}
	if got := scrapeMetric(t, nodes["va"].ts.URL, "msfud_fabric_fallback_computes_total"); got != float64(stats.Fabric.FallbackComputes) {
		t.Errorf("msfud_fabric_fallback_computes_total = %g, /v1/stats says %d", got, stats.Fabric.FallbackComputes)
	}
}

// peerForwards reads one peer's forward count out of a snapshot.
func peerForwards(s fabric.Snapshot, node string) int64 {
	for _, p := range s.Peers {
		if p.Node == node {
			return p.Forwards
		}
	}
	return -1
}
