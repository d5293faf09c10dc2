// Command msfud (magic-state functional unit daemon) serves factory
// optimization over HTTP: the same pipeline the msfu and paperbench
// CLIs run, behind a long-running process with a two-tier result cache
// (in-memory memo + optional durable store), so any given (capacity,
// level, strategy, style, seed) point is computed once — ever, when a
// -store directory is given — no matter how many requests ask for it.
//
// Usage:
//
//	msfud [-addr HOST:PORT] [-store DIR] [-parallel N] [-max-points N]
//	      [-max-inflight N] [-max-queue N] [-rate R] [-burst B]
//	      [-request-timeout D] [-drain-timeout D] [-addr-file FILE]
//	      [-node-id ID -peers ID=URL,...] [-replicate] [-peer-timeout D]
//
// Endpoints (see API.md for request/response bodies and curl examples):
//
//	POST   /v1/optimize   one point, synchronous
//	POST   /v1/batch      a grid; 202 + job id, or SSE progress with ?stream=1
//	GET    /v1/jobs/{id}  poll a batch job
//	DELETE /v1/jobs/{id}  cancel a batch job
//	GET    /v1/stats      cache hit rates, job counters, uptime
//	GET    /metrics       the same counters, Prometheus text format
//
// Cluster mode (see DESIGN.md "Fabric & failover"): -node-id names this
// node and -peers lists every cluster member as ID=URL pairs (the entry
// for this node's own ID may omit the URL). Each canonical point key is
// owned by one node on a consistent-hash ring; misses route to the
// owner first (record fetch, then forwarded evaluation) and fall back
// to local compute when the owner is unreachable or its circuit breaker
// is open, so a partitioned cluster degrades to N independent nodes,
// never to wrong answers. Cluster mode adds peer endpoints
// (/v1/record/{key}, /v1/fabric/eval, /v1/ping) and GET /v1/cluster,
// the aggregated cluster view.
//
// -parallel caps the worker pool any single request may use (default:
// one per CPU); requests may ask for less, never more. -max-points
// bounds a single batch request's grid expansion. -store enables the
// durable tier: results are persisted to DIR (created on first use,
// crash-recovered on open) and served from disk across restarts.
//
// Overload behavior (see DESIGN.md "Admission control"): at most
// -max-inflight pipeline runs execute at once, -max-queue more wait,
// and the rest answer 429 + Retry-After. Cache hits, and requests that
// share another request's computation, bypass the budget entirely. -rate adds a per-client token bucket;
// -request-timeout bounds one synchronous request's total service time
// and propagates as a context deadline into the pipeline.
//
// -addr supports port 0 for an OS-assigned port; the resolved address
// is printed on stdout and, with -addr-file, written to FILE — which is
// how the CI smoke test boots the service on a random free port.
//
// SIGINT/SIGTERM shut the service down gracefully: new compute requests
// answer 503 + Retry-After, in-flight requests and jobs are cancelled,
// live SSE streams get their terminal frame, and the store is flushed
// and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"magicstate"
	"magicstate/internal/fabric"
	"magicstate/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8350", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the resolved listen address to this file once serving")
	storeDir := flag.String("store", "", "durable result store directory (empty = in-memory cache only)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "max sweep workers any single request may use")
	maxPoints := flag.Int("max-points", 4096, "max grid points one batch request may expand to")
	maxInflight := flag.Int("max-inflight", runtime.NumCPU(), "max pipeline runs executing at once")
	maxQueue := flag.Int("max-queue", 64, "max pipeline runs waiting for an execution slot (beyond it: 429)")
	rate := flag.Float64("rate", 0, "per-client rate limit in requests/second (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-client burst size (0 = max(1, rate))")
	requestTimeout := flag.Duration("request-timeout", 0, "deadline for one synchronous request, queue wait included (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight work")
	faultStore := flag.String("fault-store", "", "TESTING ONLY: store fault injection plan, e.g. failwrite=3,stall=5:10ms")
	nodeID := flag.String("node-id", "", "this node's name in the cluster (required with -peers)")
	peers := flag.String("peers", "", "cluster members as ID=URL pairs, comma separated (this node's own URL may be omitted)")
	replicate := flag.Bool("replicate", true, "in cluster mode, replicate fresh records to the next node on the ring")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "deadline for one peer fetch or forwarded evaluation")
	faultPeer := flag.String("fault-peer", "", "TESTING ONLY: peer fault injection plan, e.g. drop=5,stall=10:50ms,corrupt=7")
	flag.Parse()

	cfg := serverConfig{
		MaxParallel:    *parallel,
		MaxPoints:      *maxPoints,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		Rate:           *rate,
		Burst:          *burst,
		RequestTimeout: *requestTimeout,
	}
	cl := clusterConfig{
		NodeID:      *nodeID,
		Peers:       *peers,
		Replicate:   *replicate,
		PeerTimeout: *peerTimeout,
		FaultPlan:   *faultPeer,
	}
	if err := run(*addr, *addrFile, *storeDir, *faultStore, cfg, cl, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// clusterConfig carries the cluster flags from main to run.
type clusterConfig struct {
	NodeID      string
	Peers       string
	Replicate   bool
	PeerTimeout time.Duration
	FaultPlan   string
}

// parsePeers splits "-peers a=http://host:1,b=http://host:2" into the
// member list and the URL map. An entry with no '=' names a member
// without an address (legal only for the node itself — it never dials
// its own URL).
func parsePeers(spec string) (nodes []string, urls map[string]string, err error) {
	urls = make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, found := strings.Cut(part, "=")
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, nil, fmt.Errorf("peer entry %q has no node id", part)
		}
		nodes = append(nodes, id)
		if found {
			url = strings.TrimRight(strings.TrimSpace(url), "/")
			if url == "" {
				return nil, nil, fmt.Errorf("peer entry %q has an empty URL", part)
			}
			urls[id] = url
		}
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("-peers lists no members")
	}
	return nodes, urls, nil
}

// run wires the batcher, fabric, listener and signal handling; split
// from main so every exit path returns through the deferred cleanup.
func run(addr, addrFile, storeDir, faultSpec string, cfg serverConfig, cl clusterConfig, drainTimeout time.Duration) error {
	if faultSpec != "" {
		// Validate eagerly so a typo'd plan fails at boot, not mid-soak.
		if _, err := store.ParseFaultPlan(faultSpec); err != nil {
			return fmt.Errorf("-fault-store: %w", err)
		}
		fmt.Println("msfud: WARNING: store fault injection active (-fault-store); not for production")
	}

	opts := magicstate.BatcherOptions{
		Parallelism: cfg.MaxParallel,
		Checkpoint:  storeDir,
		StoreFaults: faultSpec,
	}
	var fab *fabric.Fabric
	if cl.Peers != "" || cl.NodeID != "" {
		nodes, urls, err := parsePeers(cl.Peers)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		fab, err = fabric.New(fabric.Options{
			Self:      cl.NodeID,
			Nodes:     nodes,
			URLs:      urls,
			Timeout:   cl.PeerTimeout,
			Replicate: cl.Replicate,
		})
		if err != nil {
			return err
		}
		opts.RemoteFetch = func(ctx context.Context, key [32]byte) ([]byte, bool) {
			return fab.Fetch(ctx, key)
		}
		opts.RemoteEval = func(ctx context.Context, key [32]byte, cfgJSON []byte) ([]byte, bool) {
			return fab.Evaluate(ctx, key, cfgJSON)
		}
		opts.OnStore = func(key [32]byte, payload []byte) {
			fab.NotifyPut(key, payload)
		}
		cfg.Fabric = fab
	}
	if cl.FaultPlan != "" {
		if fab == nil {
			return fmt.Errorf("-fault-peer requires cluster mode (-peers)")
		}
		plan, err := fabric.ParsePeerFaultPlan(cl.FaultPlan)
		if err != nil {
			return fmt.Errorf("-fault-peer: %w", err)
		}
		cfg.PeerFaults = plan
		fmt.Println("msfud: WARNING: peer fault injection active (-fault-peer); not for production")
	}

	b, err := magicstate.NewBatcher(opts)
	if err != nil {
		return err
	}
	defer b.Close()

	if fab != nil {
		// The replication worker and breaker prober live until shutdown;
		// cancelling before the deferred b.Close keeps them from racing
		// the closing store.
		fabCtx, fabCancel := context.WithCancel(context.Background())
		defer fabCancel()
		go fab.Run(fabCtx)
	}

	srv := newServer(b, cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	resolved := ln.Addr().String()
	fmt.Printf("msfud listening on http://%s\n", resolved)
	if storeDir != "" {
		fmt.Printf("msfud durable store: %s (%d records)\n", storeDir, b.Stats().StoredRecords)
	}
	if fab != nil {
		fmt.Printf("msfud cluster: node %s of %s (replicate=%v)\n",
			fab.Self(), strings.Join(fab.Nodes(), ","), cl.Replicate)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(resolved), 0o644); err != nil {
			return err
		}
	}

	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("msfud: %v, shutting down\n", s)
		// Drain order: flip to draining first (new compute answers 503
		// + Retry-After, jobs and SSE streams are cancelled), then let
		// the HTTP layer finish writing responses, then wait for job
		// goroutines before the deferred store close, so nothing races
		// a PutReport against the closing store.
		srv.startDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := hs.Shutdown(ctx)
		srv.awaitJobs(drainTimeout)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
