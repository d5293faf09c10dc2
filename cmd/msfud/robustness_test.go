package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"magicstate"
)

// newRobustServer builds a server with an explicit robustness budget
// and hands back the internals, so tests can hold admission slots,
// read the admission counters and trigger drains deterministically.
func newRobustServer(t *testing.T, cfg serverConfig) (*httptest.Server, *server, *magicstate.Batcher) {
	t.Helper()
	if cfg.MaxParallel == 0 {
		cfg.MaxParallel = 2
	}
	if cfg.MaxPoints == 0 {
		cfg.MaxPoints = 256
	}
	b, err := magicstate.NewBatcher(magicstate.BatcherOptions{Parallelism: cfg.MaxParallel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	srv := newServer(b, cfg)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv, b
}

// --- admission unit tests ---

func TestAdmissionBudget(t *testing.T) {
	a := newAdmission(1, 1)
	rel1, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Slot taken: the next claim queues, the one after is rejected.
	r2, err := a.reserve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.reserve(); !errors.Is(err, errQueueFull) {
		t.Fatalf("third claim = %v, want errQueueFull", err)
	}
	if a.rejected.Load() != 1 {
		t.Fatalf("rejected = %d, want 1", a.rejected.Load())
	}
	if q, in := a.queued.Load(), a.inflight.Load(); q != 1 || in != 1 {
		t.Fatalf("queued, inflight = %d, %d; want 1, 1", q, in)
	}

	// The queued claim converts to a slot once the holder releases.
	got := make(chan error, 1)
	go func() {
		rel2, err := r2.wait(context.Background())
		if err == nil {
			rel2()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("queued wait finished while the slot was held: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	rel1()
	rel1() // release is idempotent
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if q, in := a.queued.Load(), a.inflight.Load(); q != 0 || in != 0 {
		t.Fatalf("after release: queued, inflight = %d, %d; want 0, 0", q, in)
	}
}

func TestAdmissionWaitHonorsContext(t *testing.T) {
	a := newAdmission(1, 4)
	rel, err := a.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire(cancelled) = %v, want context.Canceled", err)
	}
	if a.queued.Load() != 0 {
		t.Fatalf("queued = %d after cancelled wait, want 0", a.queued.Load())
	}
	// abandon returns a queued place without occupying a slot.
	r, err := a.reserve()
	if err != nil {
		t.Fatal(err)
	}
	r.abandon()
	if a.queued.Load() != 0 {
		t.Fatalf("queued = %d after abandon, want 0", a.queued.Load())
	}
}

func TestRateLimiterBucket(t *testing.T) {
	rl := newRateLimiter(1, 2)
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := rl.allow("a", now); !ok {
			t.Fatalf("request %d within burst denied", i)
		}
	}
	ok, retry := rl.allow("a", now)
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	// Other clients have their own budget.
	if ok, _ := rl.allow("b", now); !ok {
		t.Fatal("second client shares the first's bucket")
	}
	// A second of refill grants exactly one more token.
	if ok, _ := rl.allow("a", now.Add(time.Second)); !ok {
		t.Fatal("refilled token denied")
	}
	if ok, _ := rl.allow("a", now.Add(time.Second)); ok {
		t.Fatal("token granted twice")
	}
	if rl.limited.Load() != 2 {
		t.Fatalf("limited = %d, want 2", rl.limited.Load())
	}
	// The zero rate disables limiting.
	off := newRateLimiter(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := off.allow("a", now); !ok {
			t.Fatal("disabled limiter denied a request")
		}
	}
}

// --- HTTP robustness tests ---

func TestQueueFullAnswers429(t *testing.T) {
	ts, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 1, MaxQueue: 0})
	// Occupy the only execution slot so any compute-carrying request
	// must be turned away at the door.
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp := postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{Capacity: 4, Levels: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", ra)
	}
	resp.Body.Close()

	// The async job path must also answer 429 at submit time.
	resp = postJSON(t, ts.URL+"/v1/batch", batchRequest{Grid: &gridSpec{Capacities: []int{4}, Levels: 1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("batch 429 without Retry-After")
	}
	resp.Body.Close()
	if got := srv.adm.rejected.Load(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
}

func TestCacheHitsBypassAdmission(t *testing.T) {
	ts, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 1, MaxQueue: 0})
	req := optimizeRequest{Capacity: 4, Levels: 1}
	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status = %d, want 200", resp.StatusCode)
	}
	want := decode[magicstate.Result](t, resp)

	// Saturate the budget: the cached point must still be served.
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp = postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached point under saturation: status = %d, want 200", resp.StatusCode)
	}
	if got := decode[magicstate.Result](t, resp); got != want {
		t.Fatalf("cached result %+v differs from computed %+v", got, want)
	}
}

func TestRateLimitAnswers429(t *testing.T) {
	ts, _, _ := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4, Rate: 0.01, Burst: 1})
	req := optimizeRequest{Capacity: 4, Levels: 1}
	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get("X-RateLimit-Limit") == "" {
		t.Fatalf("rate-limit 429 missing Retry-After/X-RateLimit-Limit headers: %v", resp.Header)
	}
	resp.Body.Close()
}

func TestDrainAnswers503AndCancelsJobs(t *testing.T) {
	ts, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4})
	// A slow job to be caught mid-flight by the drain.
	var pts []optimizeRequest
	for i := 0; i < 60; i++ {
		pts = append(pts, optimizeRequest{Capacity: 16, Levels: 2, Reuse: true, Seed: int64(i)})
	}
	resp := postJSON(t, ts.URL+"/v1/batch", batchRequest{Points: pts, Parallelism: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status = %d, want 202", resp.StatusCode)
	}
	id := decode[map[string]any](t, resp)["job_id"].(string)

	done := make(chan struct{})
	go func() {
		srv.drainJobs(10 * time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}

	// New compute requests are refused with 503 + Retry-After…
	resp = postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{Capacity: 4, Levels: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("optimize during drain: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}
	resp.Body.Close()

	// …while read-side endpoints keep answering: the cancelled job is
	// still queryable and resolved.
	r, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	jr := decode[map[string]any](t, r)
	if jr["status"] == "running" {
		t.Fatalf("job still running after drain: %v", jr)
	}
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[map[string]any](t, sr)
	if stats["draining"] != true {
		t.Fatalf("stats.draining = %v, want true", stats["draining"])
	}
}

// scrapeMetric fetches /metrics and returns the value of the first
// sample matching name (with any labels).
func scrapeMetric(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	vals := scrapeMetricSeries(t, baseURL, name)
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total
}

// scrapeMetricSeries returns every sample of name keyed by its label
// block ("" for none).
func scrapeMetricSeries(t *testing.T, baseURL, name string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(\{[^}]*\})? ([0-9.eE+-]+)$`)
	out := make(map[string]float64)
	for _, m := range re.FindAllStringSubmatch(string(body), -1) {
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", m[0], err)
		}
		out[m[1]] = v
	}
	if len(out) == 0 {
		t.Fatalf("metric %s absent from /metrics:\n%s", name, body)
	}
	return out
}

// TestSingleflightCollapse is the acceptance check for the HTTP-layer
// singleflight: N concurrent clients asking for the same uncached point
// produce exactly one computation — one flight leader, one memo miss —
// and all N get byte-identical results; the collapse is visible in the
// /metrics counters.
func TestSingleflightCollapse(t *testing.T) {
	ts, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 4, MaxQueue: 16, MaxParallel: 1})
	// A force-directed point takes long enough (hundreds of ms) that
	// all concurrent callers overlap its computation.
	req := optimizeRequest{Capacity: 64, Levels: 1, Strategy: "fd", Seed: 11}
	body, _ := json.Marshal(req)

	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d result differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if leaders := srv.adm.runs.Load(); leaders != 1 {
		t.Fatalf("flight leaders = %d, want 1 (the whole point of singleflight)", leaders)
	}
	if got := scrapeMetric(t, ts.URL, "msfud_singleflight_leader_total"); got != 1 {
		t.Fatalf("/metrics leader_total = %g, want 1", got)
	}
	if misses := scrapeMetric(t, ts.URL, "msfud_cache_memory_misses_total"); misses != 1 {
		t.Fatalf("memo misses = %g, want 1 (N clients must share one computation)", misses)
	}
	if hits := scrapeMetric(t, ts.URL, "msfud_cache_memory_hits_total"); hits != clients-1 {
		t.Fatalf("cache hits = %g, want %d followers", hits, clients-1)
	}
}

// TestOptimizeClientDisconnectCancels is the regression test for the
// sync path honoring client disconnect: the request context must reach
// the pipeline, and an abandoned computation must neither be cached nor
// poison the point for the next caller.
func TestOptimizeClientDisconnectCancels(t *testing.T) {
	ts, _, b := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4, MaxParallel: 1})
	req := optimizeRequest{Capacity: 64, Levels: 1, Strategy: "fd", Seed: 23}
	pt, err := req.point()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d", resp.StatusCode)
		}
		errc <- err
	}()
	// Wait for the computation to start (the flight registers), then
	// hang up mid-anneal. The FD placement runs for hundreds of
	// milliseconds, so the cancel always lands inside it.
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("computation never started")
		}
		time.Sleep(200 * time.Microsecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want its own cancellation", err)
	}
	// The flight winds down — the cancellation lands at the next
	// pipeline stage boundary, which under the race detector can be
	// seconds away — and the abandoned result is NOT cached.
	deadline = time.Now().Add(60 * time.Second)
	for b.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never drained after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := b.Lookup(pt.Spec, pt.Opts); ok {
		t.Fatal("abandoned computation was cached")
	}
	// The point is not poisoned: the next caller computes it fine.
	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompute after disconnect: status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	// The disconnect was accounted as 499 (client went away).
	if got := scrapeMetricSeries(t, ts.URL, "msfud_requests_total")[`{path="/v1/optimize",code="499"}`]; got != 1 {
		t.Fatalf("499 count = %g, want 1", got)
	}
}

func TestRequestTimeoutAnswers504(t *testing.T) {
	ts, _, b := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4, MaxParallel: 1, RequestTimeout: 30 * time.Millisecond})
	req := optimizeRequest{Capacity: 64, Levels: 1, Strategy: "fd", Seed: 31}
	pt, err := req.point()
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 without Retry-After")
	}
	resp.Body.Close()
	if _, ok := b.Lookup(pt.Spec, pt.Opts); ok {
		t.Fatal("timed-out computation was cached")
	}
}

func TestStrictRequestDecoding(t *testing.T) {
	ts, _, _ := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4})
	cases := map[string]string{
		"unknown field": `{"capacity": 4, "levels": 1, "capactiy": 9}`,
		"trailing data": `{"capacity": 4, "levels": 1} {"again": true}`,
		"not json":      `hello`,
		"wrong type":    `{"capacity": "four"}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if e := decode[map[string]string](t, resp)["error"]; e == "" {
			t.Errorf("%s: missing structured error body", name)
		}
	}
	// Oversized body: 400 with a size message, not an unbounded read.
	big := `{"capacity": 4, "levels": 1, "strategy": "` + strings.Repeat("x", maxRequestBody) + `"}`
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	// The batch endpoint is equally strict.
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"grid": {"capacities": [4], "levels": 1}, "surprise": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch unknown field: status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestStreamDrainSendsTerminalFrame: a drain mid-stream must end the
// SSE response with a terminal error frame, not a silent connection
// drop.
func TestStreamDrainSendsTerminalFrame(t *testing.T) {
	ts, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4, MaxPoints: 256})
	var pts []optimizeRequest
	for i := 0; i < 120; i++ {
		pts = append(pts, optimizeRequest{Capacity: 16, Levels: 2, Reuse: true, Seed: int64(i)})
	}
	body, _ := json.Marshal(batchRequest{Points: pts, Parallelism: 1})
	resp, err := http.Post(ts.URL+"/v1/batch?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	go func() {
		// Let a few points land, then drain the server.
		time.Sleep(50 * time.Millisecond)
		srv.startDrain()
	}()
	var lastEvent string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			lastEvent = strings.TrimPrefix(sc.Text(), "event: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream ended with transport error %v, want a clean terminal frame", err)
	}
	if lastEvent != "error" && lastEvent != "done" {
		t.Fatalf("stream ended on %q, want a terminal error/done frame", lastEvent)
	}
}

// TestDrainReachesLateBatches: a stream or job that starts after the
// drain, as one that passed the drain gate just before it would, is
// born cancelled: the stream ends on an error frame and the job
// resolves failed.
func TestDrainReachesLateBatches(t *testing.T) {
	ts, srv, _ := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4})
	pt, err := optimizeRequest{Capacity: 4, Levels: 1}.point()
	if err != nil {
		t.Fatal(err)
	}
	points := []magicstate.BatchPoint{pt}
	srv.startDrain()

	rec := httptest.NewRecorder()
	srv.streamBatch(rec, httptest.NewRequest(http.MethodPost, "/v1/batch?stream=1", nil), points, 1)
	var lastEvent string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			lastEvent = ev
		}
	}
	if lastEvent != "error" {
		t.Fatalf("late stream ended on %q, want an error frame:\n%s", lastEvent, rec.Body.String())
	}

	j := srv.startJob(points, 1)
	if jr := awaitJob(t, ts.URL, j.id, 30*time.Second); jr["status"] != "failed" {
		t.Fatalf("late job resolved %v, want failed", jr)
	}
}

// TestFinishedJobRetention: past maxFinishedJobs, the earliest finished
// jobs are evicted as later ones finish, not only at the next submit.
func TestFinishedJobRetention(t *testing.T) {
	ts, _, _ := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4})
	req := batchRequest{Points: []optimizeRequest{{Capacity: 4, Levels: 1}}}
	for i := 0; i < maxFinishedJobs+2; i++ {
		if jr := awaitJob(t, ts.URL, submitJob(t, ts.URL, req), 30*time.Second); jr["status"] != "done" {
			t.Fatalf("job %d resolved %v, want done", i+1, jr)
		}
	}
	for n := 1; n <= maxFinishedJobs+2; n++ {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/job-%d", ts.URL, n))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		want := http.StatusOK
		if n <= 2 {
			want = http.StatusNotFound
		}
		if r.StatusCode != want {
			t.Errorf("job-%d: status = %d, want %d", n, r.StatusCode, want)
		}
	}
	if got := scrapeMetric(t, ts.URL, "msfud_jobs_inflight"); got != 0 {
		t.Fatalf("msfud_jobs_inflight = %g, want 0", got)
	}
}

// TestStatsAndMetricsAgree: /v1/stats and /metrics read the same
// registry, so their shared counters must be equal on a quiet server.
func TestStatsAndMetricsAgree(t *testing.T) {
	ts, _, _ := newRobustServer(t, serverConfig{MaxInflight: 2, MaxQueue: 4})
	// Generate some traffic: a computed point, a cache hit, a 400.
	postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{Capacity: 4, Levels: 1}).Body.Close()
	postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{Capacity: 4, Levels: 1}).Body.Close()
	postJSON(t, ts.URL+"/v1/optimize", optimizeRequest{Capacity: 5, Levels: 2}).Body.Close()

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[struct {
		Cache struct {
			MemoryHits         int64 `json:"memory_hits"`
			MemoryMisses       int64 `json:"memory_misses"`
			DiskHits           int64 `json:"disk_hits"`
			StageBuildHits     int64 `json:"stage_build_hits"`
			StageBuildComputes int64 `json:"stage_build_computes"`
			StagePlaceComputes int64 `json:"stage_place_computes"`
			StageSimComputes   int64 `json:"stage_sim_computes"`
		} `json:"cache"`
		Admission struct {
			QueueRejected int64 `json:"queue_rejected"`
			RateLimited   int64 `json:"rate_limited"`
		} `json:"admission"`
		Singleflight struct {
			Leaders int64 `json:"leaders"`
		} `json:"singleflight"`
		Requests map[string]int64 `json:"requests"`
	}](t, r)

	for name, want := range map[string]float64{
		"msfud_cache_memory_hits_total":   float64(stats.Cache.MemoryHits),
		"msfud_cache_memory_misses_total": float64(stats.Cache.MemoryMisses),
		"msfud_cache_disk_hits_total":     float64(stats.Cache.DiskHits),
		"msfud_queue_rejected_total":      float64(stats.Admission.QueueRejected),
		"msfud_rate_limited_total":        float64(stats.Admission.RateLimited),
		"msfud_singleflight_leader_total": float64(stats.Singleflight.Leaders),
	} {
		if got := scrapeMetric(t, ts.URL, name); got != want {
			t.Errorf("%s = %g, /v1/stats says %g", name, got, want)
		}
	}
	if stats.Requests["200"] != 2 || stats.Requests["400"] != 1 {
		t.Fatalf("request counts = %v, want 2x200 and 1x400", stats.Requests)
	}
	// The key sets are API.md's /v1/stats example, exactly: a
	// single-node service reports no peer counters and no fabric view.
	r, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[map[string]any](t, r)
	if got, want := strings.Join(sortedKeys(body), " "),
		"admission cache draining jobs latency_seconds max_parallel requests singleflight uptime_seconds"; got != want {
		t.Errorf("/v1/stats keys = %s, want %s", got, want)
	}
	cache, _ := body["cache"].(map[string]any)
	if got, want := strings.Join(sortedKeys(cache), " "),
		"checkpoint_dir disk_hits memory_hits memory_misses stage_build_computes stage_build_hits "+
			"stage_place_computes stage_place_hits stage_records stage_sim_computes stage_sim_hits "+
			"stored_bytes stored_records"; got != want {
		t.Errorf("/v1/stats cache keys = %s, want %s", got, want)
	}
	// The staged pipeline ran once (a computed point, no durable store
	// on this server), and the labeled stage series agree with stats.
	if stats.Cache.StageBuildComputes != 1 || stats.Cache.StagePlaceComputes != 1 || stats.Cache.StageSimComputes != 1 {
		t.Fatalf("stage computes = %d/%d/%d, want 1/1/1 for one cold point",
			stats.Cache.StageBuildComputes, stats.Cache.StagePlaceComputes, stats.Cache.StageSimComputes)
	}
	stageHits := scrapeMetricSeries(t, ts.URL, "msfud_cache_stage_hits_total")
	stageComputes := scrapeMetricSeries(t, ts.URL, "msfud_cache_stage_computes_total")
	if got := stageHits[`{stage="build"}`]; got != float64(stats.Cache.StageBuildHits) {
		t.Errorf("stage build hits: /metrics %g, /v1/stats %d", got, stats.Cache.StageBuildHits)
	}
	for stage, want := range map[string]int64{
		"build": stats.Cache.StageBuildComputes,
		"place": stats.Cache.StagePlaceComputes,
		"sim":   stats.Cache.StageSimComputes,
	} {
		if got := stageComputes[fmt.Sprintf("{stage=%q}", stage)]; got != float64(want) {
			t.Errorf("stage %s computes: /metrics %g, /v1/stats %d", stage, got, want)
		}
	}
	series := scrapeMetricSeries(t, ts.URL, "msfud_requests_total")
	if got := series[`{path="/v1/optimize",code="200"}`]; got != 2 {
		t.Fatalf("/metrics 200 count = %g, want 2", got)
	}
	if got := series[`{path="/v1/optimize",code="400"}`]; got != 1 {
		t.Fatalf("/metrics 400 count = %g, want 1", got)
	}
	// The latency histogram saw exactly the two accepted requests.
	if got := scrapeMetric(t, ts.URL, "msfud_request_seconds_count"); got != 2 {
		t.Fatalf("histogram count = %g, want 2 (only 2xx requests observed)", got)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.observe(0.003) // lands in the (0.0025, 0.005] bucket
	}
	if q := h.quantile(0.5); q <= 0.0025 || q > 0.005 {
		t.Fatalf("p50 = %g, want within (0.0025, 0.005]", q)
	}
	if q := h.quantile(0.99); q <= 0.0025 || q > 0.005 {
		t.Fatalf("p99 = %g, want within (0.0025, 0.005]", q)
	}
	if empty := newHistogram().quantile(0.5); empty != 0 {
		t.Fatalf("empty histogram p50 = %g, want 0", empty)
	}
}
