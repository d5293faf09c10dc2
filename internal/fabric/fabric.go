package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"magicstate/internal/httpclient"
	"magicstate/internal/store"
)

// Options configures a Fabric. Self and Nodes are required; everything
// else has a serviceable default.
type Options struct {
	// Self is this node's id. It must appear in Nodes.
	Self string
	// Nodes is the full cluster membership, this node included. All
	// nodes must be configured with the same set (order irrelevant) or
	// they will disagree about key ownership — which degrades to
	// fallback computes, not wrong answers, but wastes the cluster.
	Nodes []string
	// URLs maps peer node ids to their base URLs (e.g.
	// "http://10.0.0.2:8080"). Entries may also be added later with
	// SetURL; a peer without a URL is treated as unreachable.
	URLs map[string]string
	// BreakerThreshold is how many consecutive failures open a peer's
	// circuit breaker (default 3).
	//
	//deadcheck:keep fabric's TestFetchDeadPeerOpensBreaker and cmd/msfud's newTestCluster trip breakers after one or two failures
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before
	// admitting a half-open probe (default 1s).
	//
	//deadcheck:keep fabric's TestProberClosesBreakerOnRecovery and cmd/msfud's newTestCluster pick their own cooldowns
	BreakerCooldown time.Duration
	// Timeout bounds each individual peer call (default 2s). The
	// fallback path exists precisely so a slow peer cannot make a
	// request slower than Timeout + local compute.
	Timeout time.Duration
	// Replicate enables best-effort async replication of locally
	// computed, locally owned records to the key's ring successor.
	Replicate bool
	// Client overrides the retrying HTTP client used for peer calls.
	// The default is tuned tighter than the zero httpclient.Client
	// (2 attempts, 50ms base delay) because every fabric call has a
	// local fallback — it is better to give up fast than to retry long.
	//
	//deadcheck:keep fabric's newTestFabric and cmd/msfud's newTestCluster substitute a no-sleep client
	Client *httpclient.Client
}

// repQueueDepth bounds the replication backlog. Replication is
// best-effort: when the queue is full new records are dropped (and
// counted) rather than applying backpressure to the compute path.
const repQueueDepth = 256

// repJob is one queued replication: push payload for key to a peer.
type repJob struct {
	key     store.Key
	payload []byte
	target  string
}

// peerState is everything the fabric tracks per peer: its circuit
// breaker and the counters the metrics registry exports.
type peerState struct {
	breaker *Breaker

	fetchHits       atomic.Int64
	fetchMisses     atomic.Int64
	fetchFailures   atomic.Int64
	fetchRejected   atomic.Int64
	forwards        atomic.Int64
	forwardFailures atomic.Int64
	repSent         atomic.Int64
	repFailed       atomic.Int64
}

// Fabric routes store keys across a static set of shared-nothing msfud
// nodes: it answers who owns a key, fetches owned records from peers
// (read-through), forwards evaluations to owners, and replicates local
// results to ring successors. Every peer interaction is breaker-gated
// and byte-verified, and every method degrades to "not available —
// compute locally" rather than returning an error the request path
// would have to handle. Safe for concurrent use.
type Fabric struct {
	self      string
	ring      *Ring
	client    *httpclient.Client
	timeout   time.Duration
	replicate bool

	mu    sync.RWMutex
	urls  map[string]string
	peers map[string]*peerState

	repCh            chan repJob
	fallbackComputes atomic.Int64
	repDropped       atomic.Int64
}

// New builds a Fabric over opts. It fails only on membership errors
// (empty set, empty id, Self not a member).
func New(opts Options) (*Fabric, error) {
	ring, err := NewRing(opts.Nodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, n := range ring.Nodes() {
		if n == opts.Self {
			found = true
		}
	}
	if !found {
		return nil, errSelfNotMember(opts.Self)
	}
	threshold := opts.BreakerThreshold
	if threshold <= 0 {
		threshold = 3
	}
	cooldown := opts.BreakerCooldown
	if cooldown <= 0 {
		cooldown = time.Second
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &httpclient.Client{
			MaxAttempts: 2,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		}
	}
	f := &Fabric{
		self:      opts.Self,
		ring:      ring,
		client:    client,
		timeout:   timeout,
		replicate: opts.Replicate,
		urls:      map[string]string{},
		peers:     map[string]*peerState{},
		repCh:     make(chan repJob, repQueueDepth),
	}
	for _, n := range ring.Nodes() {
		if n == opts.Self {
			continue
		}
		f.peers[n] = &peerState{breaker: NewBreaker(threshold, cooldown, nil)}
	}
	for n, u := range opts.URLs {
		f.SetURL(n, u)
	}
	return f, nil
}

type errSelfNotMember string

func (e errSelfNotMember) Error() string {
	return "fabric: self node " + string(e) + " is not in the configured node set"
}

// Self returns this node's id.
func (f *Fabric) Self() string { return f.self }

// Nodes returns the cluster membership in sorted order.
func (f *Fabric) Nodes() []string { return f.ring.Nodes() }

// SetURL records a peer's base URL. Setting the self node or an unknown
// node is ignored.
func (f *Fabric) SetURL(node, url string) {
	if node == f.self {
		return
	}
	if _, ok := f.peers[node]; !ok {
		return
	}
	f.mu.Lock()
	f.urls[node] = url
	f.mu.Unlock()
}

// URL returns a peer's base URL, or "" if none is known.
func (f *Fabric) URL(node string) string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.urls[node]
}

// noForwardKey marks contexts whose work arrived from a peer and must
// not be forwarded again.
type noForwardKey struct{}

// NoForward marks ctx so that Evaluate refuses to forward work derived
// from it. The /v1/fabric/eval handler applies it to every forwarded
// evaluation, which is what makes a one-hop routing fabric instead of a
// loop: an evaluation crosses the wire at most once, after which the
// receiving node computes locally no matter what its ring says.
func NoForward(ctx context.Context) context.Context {
	return context.WithValue(ctx, noForwardKey{}, true)
}

func isNoForward(ctx context.Context) bool {
	v, _ := ctx.Value(noForwardKey{}).(bool)
	return v
}

// peer returns the peer state and URL for a node, or ok=false when the
// node is self, unknown, or has no URL yet.
func (f *Fabric) peer(node string) (*peerState, string, bool) {
	ps, ok := f.peers[node]
	if !ok {
		return nil, "", false
	}
	url := f.URL(node)
	if url == "" {
		return ps, "", false
	}
	return ps, url, true
}

// Fetch is the sweep engine's peer-fetch step: if k is owned by
// a reachable peer, fetch its record bytes and byte-verify them. ok is
// false whenever the fabric cannot produce a verified record — key
// owned locally, peer unknown/breaker open/unreachable, record absent,
// or payload failing digest or key verification — and the caller
// proceeds exactly as it would without a fabric.
func (f *Fabric) Fetch(ctx context.Context, k store.Key) ([]byte, bool) {
	owner := f.ring.Owner(k)
	if owner == f.self {
		return nil, false
	}
	ps, url, ok := f.peer(owner)
	if !ok || !ps.breaker.Allow() {
		return nil, false
	}
	cctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	var env RecordEnvelope
	status, err := f.client.GetJSON(cctx, url+"/v1/record/"+k.String(), &env)
	switch {
	case err == nil && status == http.StatusOK:
		payload, verr := env.Verify(k)
		if verr != nil {
			// The peer answered but the bytes are wrong: count the
			// rejection and treat the peer as failing, so a node serving
			// rot trips its breaker like a dead one.
			ps.fetchRejected.Add(1)
			ps.breaker.Failure()
			return nil, false
		}
		ps.fetchHits.Add(1)
		ps.breaker.Success()
		return payload, true
	case err == nil && status == http.StatusNotFound:
		// A healthy peer that simply has not computed the point yet.
		ps.fetchMisses.Add(1)
		ps.breaker.Success()
		return nil, false
	default:
		ps.fetchFailures.Add(1)
		ps.breaker.Failure()
		return nil, false
	}
}

// Evaluate forwards a point evaluation to the owner of k and returns
// the verified record bytes the owner computed. ok=false means "the
// fabric did not evaluate this point — compute it locally"; when the
// point is genuinely owned by a peer that could not serve it, the
// miss is additionally counted as a fallback compute, which is the
// number the failover tests reconcile against orphaned points.
func (f *Fabric) Evaluate(ctx context.Context, k store.Key, cfgJSON []byte) ([]byte, bool) {
	if isNoForward(ctx) {
		return nil, false
	}
	owner := f.ring.Owner(k)
	if owner == f.self {
		return nil, false
	}
	ps, url, ok := f.peer(owner)
	if !ok {
		f.fallbackComputes.Add(1)
		return nil, false
	}
	if !ps.breaker.Allow() {
		f.fallbackComputes.Add(1)
		return nil, false
	}
	cctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	var env RecordEnvelope
	status, err := f.client.PostJSON(cctx, url+"/v1/fabric/eval",
		EvalRequest{Key: k.String(), Config: json.RawMessage(cfgJSON)}, &env)
	if err != nil || status != http.StatusOK {
		ps.forwardFailures.Add(1)
		ps.breaker.Failure()
		f.fallbackComputes.Add(1)
		return nil, false
	}
	payload, verr := env.Verify(k)
	if verr != nil {
		ps.forwardFailures.Add(1)
		ps.breaker.Failure()
		f.fallbackComputes.Add(1)
		return nil, false
	}
	ps.forwards.Add(1)
	ps.breaker.Success()
	return payload, true
}

// NotifyPut is the store's on-put hook: when this node freshly persists
// a record it owns, the record is queued for best-effort replication to
// the key's ring successor. Records owned by other nodes (fallback
// computes, forwarded-eval admissions) are not replicated — their
// owners are responsible for them. A full queue drops the record and
// counts the drop.
func (f *Fabric) NotifyPut(k store.Key, payload []byte) {
	if !f.replicate {
		return
	}
	if f.ring.Owner(k) != f.self {
		return
	}
	succ := f.ring.Successor(k)
	if succ == "" || succ == f.self {
		return
	}
	select {
	case f.repCh <- repJob{key: k, payload: payload, target: succ}:
	default:
		f.repDropped.Add(1)
	}
}

// Run drives the fabric's background work until ctx ends: the
// replication worker draining NotifyPut's queue, and a prober that
// health-checks peers whose breakers are open so they close again from
// idle (without waiting for live traffic to spend its probe).
func (f *Fabric) Run(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		f.runReplication(ctx)
	}()
	go func() {
		defer wg.Done()
		f.runProber(ctx)
	}()
	wg.Wait()
}

// runReplication drains the replication queue, PUTting each record's
// envelope to its target peer. Failures count but are not retried
// beyond the HTTP client's own attempts — replication is an
// optimization, and correctness never depends on it.
func (f *Fabric) runReplication(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case job := <-f.repCh:
			f.replicateOne(ctx, job)
		}
	}
}

func (f *Fabric) replicateOne(ctx context.Context, job repJob) {
	ps, url, ok := f.peer(job.target)
	if !ok || !ps.breaker.Allow() {
		if ps != nil {
			ps.repFailed.Add(1)
		}
		return
	}
	cctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	body, err := json.Marshal(NewEnvelope(job.key, job.payload))
	if err != nil {
		ps.repFailed.Add(1)
		return
	}
	req, err := http.NewRequestWithContext(cctx, http.MethodPut,
		url+"/v1/record/"+job.key.String(), bytes.NewReader(body))
	if err != nil {
		ps.repFailed.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		ps.repFailed.Add(1)
		ps.breaker.Failure()
		return
	}
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		ps.repSent.Add(1)
		ps.breaker.Success()
		return
	}
	ps.repFailed.Add(1)
	ps.breaker.Failure()
}

// proberInterval is how often the background prober scans for open
// breakers. Small enough that a recovered peer rejoins within a couple
// of cooldown windows, large enough to be noise at cluster scale.
const proberInterval = 500 * time.Millisecond

// runProber periodically pings peers whose breakers are not closed. The
// ping goes through Allow, so it is the half-open probe when one is
// due; its success re-closes the breaker before any live request has to
// gamble on the peer.
func (f *Fabric) runProber(ctx context.Context) {
	t := time.NewTicker(proberInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for node, ps := range f.peers {
				if ps.breaker.State() == BreakerClosed {
					continue
				}
				_, url, ok := f.peer(node)
				if !ok || !ps.breaker.Allow() {
					continue
				}
				cctx, cancel := context.WithTimeout(ctx, f.timeout)
				status, err := f.client.GetJSON(cctx, url+"/v1/ping", nil)
				cancel()
				if err == nil && status == http.StatusOK {
					ps.breaker.Success()
				} else {
					ps.breaker.Failure()
				}
			}
		}
	}
}

// PeerSnapshot is one peer's counters at a point in time, as exported
// through /v1/stats and /metrics.
type PeerSnapshot struct {
	// Node is the peer's id.
	Node string `json:"node"`
	// Breaker is the breaker position ("closed", "open", "half-open").
	Breaker string `json:"breaker"`
	// BreakerOpened counts closed→open transitions.
	BreakerOpened int64 `json:"breaker_opened"`
	// FetchHits counts verified records fetched from this peer.
	FetchHits int64 `json:"fetch_hits"`
	// FetchMisses counts clean 404s (peer healthy, record absent).
	FetchMisses int64 `json:"fetch_misses"`
	// FetchFailures counts transport errors and unexpected statuses.
	FetchFailures int64 `json:"fetch_failures"`
	// FetchRejected counts responses discarded by byte verification.
	FetchRejected int64 `json:"fetch_rejected"`
	// Forwards counts evaluations this peer served as owner.
	Forwards int64 `json:"forwards"`
	// ForwardFailures counts forwarded evaluations that failed over to
	// local compute.
	ForwardFailures int64 `json:"forward_failures"`
	// ReplicationSent counts records successfully replicated to this
	// peer.
	ReplicationSent int64 `json:"replication_sent"`
	// ReplicationFailed counts replication attempts that did not land.
	ReplicationFailed int64 `json:"replication_failed"`
}

// Snapshot is the fabric's full observable state at a point in time.
type Snapshot struct {
	// Self is this node's id.
	Self string `json:"self"`
	// Nodes is the cluster membership.
	Nodes []string `json:"nodes"`
	// Peers holds per-peer counters, sorted by node id.
	Peers []PeerSnapshot `json:"peers"`
	// FallbackComputes counts peer-owned points this node computed
	// locally because their owner could not serve them.
	FallbackComputes int64 `json:"fallback_computes"`
	// ReplicationQueue is the current replication backlog length.
	ReplicationQueue int `json:"replication_queue"`
	// ReplicationDropped counts records dropped on a full queue.
	ReplicationDropped int64 `json:"replication_dropped"`
}

// Stats returns a consistent-enough snapshot of the fabric's counters
// for /v1/stats, /v1/cluster and the metrics registry.
func (f *Fabric) Stats() Snapshot {
	s := Snapshot{
		Self:               f.self,
		Nodes:              f.ring.Nodes(),
		FallbackComputes:   f.fallbackComputes.Load(),
		ReplicationQueue:   len(f.repCh),
		ReplicationDropped: f.repDropped.Load(),
	}
	for node, ps := range f.peers {
		s.Peers = append(s.Peers, PeerSnapshot{
			Node:              node,
			Breaker:           ps.breaker.State().String(),
			BreakerOpened:     ps.breaker.opened.Load(),
			FetchHits:         ps.fetchHits.Load(),
			FetchMisses:       ps.fetchMisses.Load(),
			FetchFailures:     ps.fetchFailures.Load(),
			FetchRejected:     ps.fetchRejected.Load(),
			Forwards:          ps.forwards.Load(),
			ForwardFailures:   ps.forwardFailures.Load(),
			ReplicationSent:   ps.repSent.Load(),
			ReplicationFailed: ps.repFailed.Load(),
		})
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Node < s.Peers[j].Node })
	return s
}
