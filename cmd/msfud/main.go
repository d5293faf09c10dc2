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
	"syscall"
	"time"

	"magicstate"
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
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(*addr, *addrFile, *storeDir, *faultStore, cfg, *drainTimeout, sig); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run wires the batcher and listener and serves until a signal arrives
// on sig; split from main so every exit path returns through the
// deferred cleanup. A failed final flush or close of the store fails
// an otherwise clean run.
func run(addr, addrFile, storeDir, faultSpec string, cfg serverConfig, drainTimeout time.Duration, sig <-chan os.Signal) (err error) {
	if faultSpec != "" {
		// Validate eagerly so a typo'd plan fails at boot, not mid-soak.
		if _, err := store.ParseFaultPlan(faultSpec); err != nil {
			return fmt.Errorf("-fault-store: %w", err)
		}
		fmt.Println("msfud: WARNING: store fault injection active (-fault-store); not for production")
	}

	b, err := magicstate.NewBatcher(magicstate.BatcherOptions{
		Parallelism: cfg.MaxParallel,
		Checkpoint:  storeDir,
		StoreFaults: faultSpec,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := b.Close(); err == nil {
			err = cerr
		}
	}()
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
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(resolved), 0o644); err != nil {
			return err
		}
	}

	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("msfud: %v, shutting down\n", s)
		// Drain order: flip to draining first (new compute answers 503
		// + Retry-After, jobs and SSE streams are cancelled), then let
		// the HTTP layer finish writing responses, then wait for job
		// goroutines before the deferred store close, so nothing races
		// a PutStage against the closing store.
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
